package sched

import "caft/internal/timeline"

// Clone deep-copies the state: the probe oracle. A placement on a clone
// is what a probe on the original must return, and it leaves the
// original untouched by construction. Scratch buffers and the
// speculation journal are not carried over.
func (st *State) Clone() *State {
	c := &State{P: st.P, net: st.net, routed: st.routed, m: st.m, seq: st.seq, floor: st.floor}
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

// CommRef is the reference slot search ProbeComm is pinned against:
// the cursor-free fixpoint that restarts every timeline's search each
// round, over every timeline the transfer crosses — on the clique
// send(src), recv(dst) and the dedicated link (src,dst), which the
// state does not keep and the reference books itself from the
// communication records. It assumes no communication was cancelled
// (states rebuilt by StateOf).
type CommRef struct {
	st    *State
	links []timeline.Timeline // clique link timelines, src*m+dst
}

// NewCommRef books st's clique link timelines.
func NewCommRef(st *State) *CommRef {
	r := &CommRef{st: st}
	if !st.routed {
		r.links = make([]timeline.Timeline, st.m*st.m)
		for _, c := range st.Comms {
			if !c.Intra && st.P.Model != MacroDataflow {
				r.links[c.SrcProc*st.m+c.DstProc].MustAdd(c.Start, c.Dur, c.Seq)
			}
		}
	}
	return r
}

// ProbeComm is State.ProbeComm computed by the reference fixpoint.
func (r *CommRef) ProbeComm(src, dst int, readyAt, volume float64) (start, finish float64) {
	st := r.st
	if src == dst {
		return readyAt, readyAt
	}
	dur := st.net.Dur(src, dst, volume)
	if st.P.Model == MacroDataflow {
		return readyAt, readyAt + dur
	}
	tls := []*timeline.Timeline{&st.tls[st.sendID(src)], &st.tls[st.recvID(dst)]}
	if !st.routed {
		tls = append(tls, &r.links[src*st.m+dst])
	} else {
		for _, l := range st.net.Route(src, dst) {
			tls = append(tls, &st.tls[st.linkID(l)])
		}
	}
	s := readyAt
	for {
		next := s
		for _, tl := range tls {
			if next < st.floor {
				next = st.floor
			}
			next = tl.EarliestSlot(next, dur, st.P.Policy)
		}
		if next == s {
			return s, s + dur
		}
		s = next
	}
}
