package main

import (
	"fmt"
	"sort"
)

// reqSpans indexes one traced request's spans.
type reqSpans struct {
	client, entry, hop, decode, do int // span indices, -1 when absent
}

// servingLayers turns a traced serving phase's spans into the layer
// rows. It links every request's spans (a forwarded hop is paired with
// the entry span that carried it: same response key, another node,
// starting inside its interval), computes self times, and averages:
//
//	client          = loopback.rtt + service.handler
//	service.handler = forward_ratio·service.forward + service.decode
//	                  + service.do + service.handler_other
//	service.do      = stages + service.queue          (serve-cold)
func servingLayers(rep *report, spans []span, cfg servingConfig) error {
	reqs := make(map[int64]*reqSpans)
	get := func(rid int64) *reqSpans {
		r := reqs[rid]
		if r == nil {
			r = &reqSpans{-1, -1, -1, -1, -1}
			reqs[rid] = r
		}
		return r
	}
	var hops []int
	stages := make(map[string][]int64)
	for i := range spans {
		s := &spans[i]
		switch {
		case s.name == "client":
			get(s.req).client = i
		case s.name == "service.handler" && s.hop:
			hops = append(hops, i)
		case s.name == "service.handler":
			get(s.req).entry = i
		case s.name == "service.decode":
			get(s.req).decode = i
		case s.name == "service.do":
			get(s.req).do = i
		default:
			stages[s.name] = append(stages[s.name], s.dur())
		}
	}
	// Pair hops with entries, in hop start order. The entry that carried
	// a hop started before it and had not ended when it started. A client
	// has one request in flight, so it is among the last entries that
	// started before the hop; 64 covers a hop delayed for many requests.
	// When two in-flight entries carry the same key to the same owner,
	// the earlier entry takes the earlier hop.
	var entries []int64
	for rid, r := range reqs {
		if r.entry >= 0 {
			entries = append(entries, rid)
		}
	}
	start := func(rid int64) int64 { return spans[reqs[rid].entry].start }
	sort.Slice(entries, func(a, b int) bool { return start(entries[a]) < start(entries[b]) })
	sort.Slice(hops, func(a, b int) bool { return spans[hops[a]].start < spans[hops[b]].start })
	unpaired := 0
	for _, h := range hops {
		hs := &spans[h]
		i := sort.Search(len(entries), func(i int) bool { return start(entries[i]) > hs.start }) - 1
		best := int64(-1)
		for j := i; j >= 0 && j > i-64; j-- {
			r := reqs[entries[j]]
			e := &spans[r.entry]
			if r.hop < 0 && e.key == hs.key && e.node != hs.node && hs.start <= e.end {
				best = entries[j]
			}
		}
		if best < 0 {
			unpaired++
			continue
		}
		reqs[best].hop = h
		hs.req = best
	}
	if unpaired > 0 {
		rep.note("note %d forwarded hops had no entry span", unpaired)
	}
	// Link parents: client > entry > hop; the replays belong to the
	// handler that did the work.
	for _, r := range reqs {
		if r.client < 0 || r.entry < 0 {
			continue
		}
		spans[r.entry].parent = spans[r.client].id
		worker := r.entry
		if r.hop >= 0 {
			spans[r.hop].parent = spans[r.entry].id
			worker = r.hop
		}
		for _, k := range []int{r.decode, r.do} {
			if k >= 0 {
				spans[k].parent = spans[worker].id
			}
		}
	}
	self := selfTimes(spans)

	var client, rtt, handler, forward, other, decode, do, queue acc
	requests, forwarded := 0, 0
	for _, r := range reqs {
		if r.client < 0 || r.entry < 0 {
			continue
		}
		requests++
		client.add(spans[r.client].dur())
		rtt.add(self[r.client])
		handler.add(spans[r.entry].dur())
		worker := r.entry
		if r.hop >= 0 {
			forwarded++
			forward.add(self[r.entry])
			worker = r.hop
		}
		if r.decode >= 0 && r.do >= 0 {
			other.add(self[worker])
			decode.add(spans[r.decode].dur())
			do.add(spans[r.do].dur())
			queue.add(self[r.do])
		}
	}
	if requests == 0 {
		return fmt.Errorf("traced phase recorded no complete request")
	}
	us := func(a acc) float64 { return a.mean() / 1e3 }
	ms := func(a acc) float64 { return a.mean() / 1e6 }
	ratio := float64(forwarded) / float64(requests)
	rep.set("client.mean_us", us(client), client.n)
	rep.set("loopback.rtt_us", us(rtt), rtt.n)
	rep.set("service.handler_us", us(handler), handler.n)
	rep.set("service.decode_us", us(decode), decode.n)
	rep.set("service.do_us", us(do), do.n)
	rep.set("service.handler_other_us", us(other), other.n)
	rep.set("service.forward_us", us(forward), forward.n)
	rep.note("breakdown client.mean_us %.2f = loopback.rtt_us %.2f + service.handler_us %.2f",
		us(client), us(rtt), us(handler))
	rep.note("breakdown service.handler_us %.2f ~ %.3f x service.forward_us %.2f + service.decode_us %.2f + service.do_us %.2f + service.handler_other_us %.2f (sum %.2f)",
		us(handler), ratio, us(forward), us(decode), us(do), us(other),
		ratio*us(forward)+us(decode)+us(do)+us(other))
	if !cfg.cold {
		return nil
	}
	sum := 0.0
	for i, name := range stageNames {
		var a acc
		for _, d := range stages[name] {
			a.add(d)
		}
		rep.set(stageRows[i], ms(a), a.n)
		sum += ms(a)
	}
	rep.set("service.queue_ms", ms(queue), queue.n)
	rep.note("breakdown service.do_us/1000 %.3f ms = stage rows %.3f ms + service.queue_ms %.3f ms", ms(do), sum, ms(queue))
	return nil
}

// stageRows are the report rows of stageNames.
var stageRows = [len(stageNames)]string{"gen.build_ms", "platform.build_ms", "sched.schedule_ms", "expt.reliability_ms", "service.encode_ms"}

// acc accumulates durations in ns.
type acc struct {
	sum int64
	n   int
}

func (a *acc) add(d int64) { a.sum += d; a.n++ }

// mean is 0 for an empty accumulator: a layer the phase did not
// exercise.
func (a acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.n)
}
