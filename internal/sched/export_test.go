package sched

import "caft/internal/timeline"

// Clone deep-copies the state: the probe oracle. A placement on a clone
// is what a probe on the original must return, and it leaves the
// original untouched by construction. Scratch buffers and the
// speculation journal are not carried over.
func (st *State) Clone() *State {
	c := &State{P: st.P, net: st.net, clique: st.clique, m: st.m, seq: st.seq, floor: st.floor}
	c.tls = make([]timeline.Timeline, len(st.tls))
	for i := range st.tls {
		c.tls[i] = *st.tls[i].Clone()
	}
	c.Reps = make([][]Replica, len(st.Reps))
	for t := range st.Reps {
		c.Reps[t] = append([]Replica(nil), st.Reps[t]...)
	}
	c.Comms = append([]Comm(nil), st.Comms...)
	return c
}

// StateFP captures everything a probe must leave untouched: every
// timeline's interval list and ready time, the replica and
// communication records, and the sequence counter.
type StateFP struct {
	ivs   [][]timeline.Interval
	ready []float64
	reps  [][]Replica
	comms []Comm
	seq   int32
}

// Fingerprint returns the state's StateFP; compare two with
// reflect.DeepEqual.
func Fingerprint(st *State) StateFP {
	fp := StateFP{seq: st.seq}
	for i := range st.tls {
		fp.ivs = append(fp.ivs, append([]timeline.Interval(nil), st.tls[i].Intervals()...))
		fp.ready = append(fp.ready, st.tls[i].Ready())
	}
	for t := range st.Reps {
		fp.reps = append(fp.reps, append([]Replica(nil), st.Reps[t]...))
	}
	fp.comms = append([]Comm(nil), st.Comms...)
	return fp
}
