package chaos

import (
	"bytes"
	"encoding/json"
	"testing"
)

// soakVerdicts runs a fixed-seed campaign at one shard count and returns
// the verdict sequence serialized — the byte-level artifact the
// determinism contract is stated over.
func soakVerdicts(t *testing.T, gen GenOptions, count int, shards int) []byte {
	t.Helper()
	rep := Soak(SoakOptions{
		Seed:  2024,
		Count: count,
		Gen:   gen,
		Run:   RunOptions{Shards: shards},
	})
	if len(rep.Verdicts) != count {
		t.Fatalf("shards=%d: got %d verdicts, want %d", shards, len(rep.Verdicts), count)
	}
	b, err := json.Marshal(rep.Verdicts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSoakShardDeterminism runs the randomized chaos campaign — mixed
// topologies, protocols, faults, rogues and defenses — at shard counts
// 1, 2 and 8 and requires byte-for-byte identical verdict logs. This is
// the PR's strongest end-to-end determinism check: every subsystem the
// soak touches (mailboxes, barriers, pools, deferred completions,
// defense tickers, fault hooks) must be partition-independent.
func TestSoakShardDeterminism(t *testing.T) {
	count := 30
	if testing.Short() {
		count = 6
	}
	checkSoakShardIdentity(t, GenOptions{}, count)
}

// TestSoakFailShardDeterminism forces a topology kill into every
// scenario: local ECMP invalidation, blackhole windows and route
// reconvergence must all be partition-independent too.
func TestSoakFailShardDeterminism(t *testing.T) {
	count := 20
	if testing.Short() {
		count = 4
	}
	checkSoakShardIdentity(t, GenOptions{FailProb: 1}, count)
}

// checkSoakShardIdentity requires byte-identical verdict logs at shard
// counts 1, 2 and 8.
func checkSoakShardIdentity(t *testing.T, gen GenOptions, count int) {
	t.Helper()
	base := soakVerdicts(t, gen, count, 1)
	for _, k := range []int{2, 8} {
		got := soakVerdicts(t, gen, count, k)
		if !bytes.Equal(base, got) {
			diffAt := len(base)
			for i := 0; i < len(base) && i < len(got); i++ {
				if base[i] != got[i] {
					diffAt = i
					break
				}
			}
			lo, hi := diffAt-80, diffAt+80
			if lo < 0 {
				lo = 0
			}
			window := func(b []byte) string {
				h := hi
				if h > len(b) {
					h = len(b)
				}
				if lo >= h {
					return ""
				}
				return string(b[lo:h])
			}
			t.Errorf("shards=%d verdicts diverge from shards=1 at byte %d:\n  1: …%s…\n  %d: …%s…",
				k, diffAt, window(base), k, window(got))
		}
	}
}

// TestRunShardedMatchesItself replays one generated scenario twice at
// the same shard count — the run must also be deterministic against
// itself (no map-order or goroutine-schedule leakage).
func TestRunShardedMatchesItself(t *testing.T) {
	sc := Generate(77, GenOptions{})
	a, err := Run(sc, RunOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, RunOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Errorf("same scenario, same shard count, different results:\n a: %s\n b: %s", ja, jb)
	}
}
