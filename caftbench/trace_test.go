package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 30},
		{id: 3, parent: 1, start: 20, end: 50}, // overlaps span 2: [10,50) counts once
		{id: 4, parent: 1, start: 500, end: 515, replayed: true},
		{id: 5, parent: 3, start: 40, end: 90}, // clipped to its parent's end
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 15, 20, 30 - 10, 15, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", spans[i].id, got[i], want[i])
		}
	}
}

func TestServingLayersPairForwardedHops(t *testing.T) {
	spans := []span{
		// Request 1 enters node 0 and is forwarded to node 2.
		{id: 1, name: "client", req: 1, start: 0, end: 1000},
		{id: 2, name: "service.handler", req: 1, node: 0, start: 100, end: 900, key: "k1"},
		{id: 3, name: "service.handler", node: 2, hop: true, start: 300, end: 700, key: "k1"},
		{id: 4, name: "service.decode", req: 1, start: 2000, end: 2050, replayed: true},
		{id: 5, name: "service.do", req: 1, start: 2050, end: 2080, replayed: true},
		// Request 2 is served by its entry node.
		{id: 6, name: "client", req: 2, start: 1000, end: 1500},
		{id: 7, name: "service.handler", req: 2, node: 1, start: 1100, end: 1400, key: "k2"},
		{id: 8, name: "service.decode", req: 2, start: 3000, end: 3050, replayed: true},
		{id: 9, name: "service.do", req: 2, start: 3050, end: 3080, replayed: true},
	}
	rep := newReport("test")
	if err := servingLayers(rep, spans, servingConfig{nodes: 3}); err != nil {
		t.Fatal(err)
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	for name, want := range map[string]float64{
		"client.mean_us":           us((1000 + 500) / 2),
		"loopback.rtt_us":          us((200 + 200) / 2),
		"service.handler_us":       us((800 + 300) / 2),
		"service.forward_us":       us(800 - 400),
		"service.decode_us":        us(50),
		"service.do_us":            us(30),
		"service.handler_other_us": us((400 - 80 + 300 - 80) / 2),
	} {
		if got := rep.rows[name].value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesRows pins BENCHMARK.json to the rows and
// workloads the program reports.
func TestBenchmarkJSONMatchesRows(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s/%s in BENCHMARK.json, %s/%s in the program", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s/%s in BENCHMARK.json, %s/%s in the program", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
