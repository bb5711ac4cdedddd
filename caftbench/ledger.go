package main

import (
	"hash/maphash"
	"sync/atomic"
)

// ledger is the byte-identity gate of the serving workloads: the first
// response served for a problem pins its fingerprint, and every later
// response for that problem, through any node, must match it. A pin can
// also be set ahead of serving (the hot workloads pin the bytes of a
// direct Service.Do at set-up).
type ledger struct {
	seed       maphash.Seed
	sums       []atomic.Uint64 // 0 = not pinned yet
	mismatches atomic.Int64
}

func newLedger(problems int) *ledger {
	return &ledger{seed: maphash.MakeSeed(), sums: make([]atomic.Uint64, problems)}
}

// sum is never 0, so 0 can mark an unpinned problem.
func (l *ledger) sum(body []byte) uint64 { return maphash.Bytes(l.seed, body) | 1 }

// check pins or verifies the bytes served for problem p and reports
// whether they match the pin.
func (l *ledger) check(p int, body []byte) bool {
	s := l.sum(body)
	if l.sums[p].CompareAndSwap(0, s) || l.sums[p].Load() == s {
		return true
	}
	l.mismatches.Add(1)
	return false
}
