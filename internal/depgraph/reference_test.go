package depgraph_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fchain/internal/cloudsim"
	"fchain/internal/depgraph"
	"fchain/internal/meshgen"
)

// refDiscover is Discover as it was before the windowed co-occurrence scan:
// for every inbound flow into X it walks all of X's outbound flows and
// dedupes destinations in a fresh map, O(inbound × outbound). It is kept
// only as the reference TestDiscoverMatchesReference and FuzzDiscover hold
// Discover to.
func refDiscover(packets []depgraph.Packet, cfg depgraph.DiscoverConfig) *depgraph.Graph {
	cfg = refDefaults(cfg)
	flows := depgraph.ExtractFlows(packets, cfg)
	g := depgraph.NewGraph()
	// Discard stream-like flows: discovery relies on discrete request/reply
	// exchanges.
	usable := flows[:0]
	for _, f := range flows {
		g.AddNode(f.Src)
		g.AddNode(f.Dst)
		if f.End-f.Start <= cfg.MaxFlowDuration {
			usable = append(usable, f)
		}
	}
	usable = refDropReplies(usable, cfg.ReplyWindow)
	// Index outbound flows by source for the co-occurrence scan.
	outBySrc := make(map[string][]depgraph.Flow)
	for _, f := range usable {
		outBySrc[f.Src] = append(outBySrc[f.Src], f)
	}
	// For each inbound flow into X, check whether X emits a flow to each
	// candidate Y within the delay window.
	inCount := make(map[string]int)                // X -> inbound flows
	coCount := make(map[[2]string]int)             // (X,Y) -> co-occurrences
	candidates := make(map[string]map[string]bool) // X -> {Y}
	for _, f := range usable {
		for _, out := range outBySrc[f.Dst] {
			if candidates[f.Dst] == nil {
				candidates[f.Dst] = make(map[string]bool)
			}
			candidates[f.Dst][out.Dst] = true
		}
	}
	for _, in := range usable {
		x := in.Dst
		inCount[x]++
		seen := make(map[string]bool)
		for _, out := range outBySrc[x] {
			if seen[out.Dst] {
				continue
			}
			// The outbound flow must start after (or with) the inbound
			// request and within the delay window.
			if out.Start >= in.Start && out.Start <= in.Start+cfg.Delay {
				coCount[[2]string{x, out.Dst}]++
				seen[out.Dst] = true
			}
		}
	}
	for x, ys := range candidates {
		if inCount[x] < cfg.MinFlows {
			continue
		}
		for y := range ys {
			conf := float64(coCount[[2]string{x, y}]) / float64(inCount[x])
			if conf >= cfg.MinConfidence {
				g.AddEdge(x, y, conf)
			}
		}
	}
	// Entry components receive no inbound flows, but their outbound edges
	// are directly observable: if X never appears as a destination yet
	// repeatedly opens flows to Y, record the edge with confidence from
	// flow count.
	for x, outs := range outBySrc {
		if inCount[x] > 0 {
			continue
		}
		perDst := make(map[string]int)
		for _, f := range outs {
			perDst[f.Dst]++
		}
		for y, n := range perDst {
			if n >= cfg.MinFlows {
				g.AddEdge(x, y, 1.0)
			}
		}
	}
	return g
}

// refDefaults mirrors DiscoverConfig's unexported defaults.
func refDefaults(c depgraph.DiscoverConfig) depgraph.DiscoverConfig {
	if c.GapThreshold <= 0 {
		c.GapThreshold = 0.5
	}
	if c.Delay <= 0 {
		c.Delay = 1.0
	}
	if c.MinConfidence <= 0 {
		c.MinConfidence = 0.3
	}
	if c.ReplyWindow <= 0 {
		c.ReplyWindow = 0.2
	}
	if c.MinFlows <= 0 {
		c.MinFlows = 10
	}
	if c.MaxFlowDuration <= 0 {
		c.MaxFlowDuration = 30
	}
	return c
}

// refDropReplies is dropReplies as refDiscover called it.
func refDropReplies(flows []depgraph.Flow, replyWindow float64) []depgraph.Flow {
	type pair struct{ src, dst string }
	starts := make(map[pair][]float64)
	for _, f := range flows {
		k := pair{f.Src, f.Dst}
		starts[k] = append(starts[k], f.Start)
	}
	for _, ts := range starts {
		sort.Float64s(ts)
	}
	out := flows[:0]
	for _, f := range flows {
		rev := starts[pair{f.Dst, f.Src}]
		i := sort.SearchFloat64s(rev, f.Start-replyWindow)
		if i < len(rev) && rev[i] <= f.Start {
			continue
		}
		out = append(out, f)
	}
	return out
}

func graphBytes(t testing.TB, g *depgraph.Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := g.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkMatchesReference requires Discover and refDiscover to write the same
// bytes for pkts under cfg.
func checkMatchesReference(t testing.TB, pkts []depgraph.Packet, cfg depgraph.DiscoverConfig) {
	t.Helper()
	got := graphBytes(t, depgraph.Discover(pkts, cfg))
	want := graphBytes(t, refDiscover(pkts, cfg))
	if !bytes.Equal(got, want) {
		t.Fatalf("Discover differs from the reference (%d packets, %+v)\ngot:  %s\nwant: %s", len(pkts), cfg, got, want)
	}
}

// repeat emits round(base) for n rounds spaced period seconds apart, far
// enough for every round's flows to be separate.
func repeat(n int, period float64, round func(base float64) []depgraph.Packet) []depgraph.Packet {
	var pkts []depgraph.Packet
	for i := 0; i < n; i++ {
		pkts = append(pkts, round(float64(i)*period)...)
	}
	return pkts
}

func pkt(t float64, src, dst string) depgraph.Packet {
	return depgraph.Packet{Time: t, Src: src, Dst: dst}
}

// syntheticTraces are the hand-built traces that pin the window's edges.
func syntheticTraces() map[string][]depgraph.Packet {
	return map[string][]depgraph.Packet{
		"empty": nil,
		// The outbound flow starts exactly when the inbound one does.
		"out-at-in-start": repeat(12, 3, func(b float64) []depgraph.Packet {
			return []depgraph.Packet{pkt(b, "a", "x"), pkt(b, "x", "y")}
		}),
		// The outbound flow starts exactly Delay after the inbound one, on
		// times that are and are not exact binary fractions.
		"out-at-window-end": repeat(12, 3.1, func(b float64) []depgraph.Packet {
			return []depgraph.Packet{pkt(b+0.1, "a", "x"), pkt(b+1.1, "x", "y"), pkt(b+0.25, "a", "z"), pkt(b+1.25, "z", "w")}
		}),
		// One tick outside each end of the window.
		"out-just-outside": repeat(12, 3, func(b float64) []depgraph.Packet {
			return []depgraph.Packet{pkt(b+0.5, "a", "x"), pkt(math.Nextafter(b+0.5, -1), "x", "y"), pkt(math.Nextafter(b+1.5, 10), "x", "z")}
		}),
		// Several flows share each timestamp, and one destination is hit
		// twice inside one window (it must count once).
		"duplicate-times": repeat(15, 2.5, func(b float64) []depgraph.Packet {
			return []depgraph.Packet{
				pkt(b, "a", "x"), pkt(b, "a", "x"), pkt(b, "c", "x"),
				pkt(b, "x", "y"), pkt(b, "x", "z"), pkt(b, "x", "y"),
				pkt(b+0.6, "x", "y"), pkt(b+0.6, "x", "w"),
			}
		}),
		// One component fans out to many, some only every other round, so
		// confidences straddle MinConfidence.
		"fan-out": repeat(20, 4, func(b float64) []depgraph.Packet {
			p := []depgraph.Packet{pkt(b, "lb", "x")}
			for i := 0; i < 24; i++ {
				if i%3 == 0 || int(b/4)%(1+i%4) == 0 {
					p = append(p, pkt(b+0.02*float64(i), "x", fmt.Sprintf("y%02d", i)))
				}
			}
			return p
		}),
		// Replies inside and outside ReplyWindow.
		"replies": repeat(14, 3, func(b float64) []depgraph.Packet {
			return []depgraph.Packet{
				pkt(b, "c", "web"), pkt(b+0.01, "web", "app"), pkt(b+0.05, "app", "web"),
				pkt(b+0.3, "app", "db"), pkt(b+0.35, "db", "app"), pkt(b+0.9, "web", "c"),
			}
		}),
		// Entry components: "e10" opens exactly MinFlows flows to "t" and
		// "e9" one fewer; neither ever receives one.
		"entry-min-flows": append(
			repeat(10, 2, func(b float64) []depgraph.Packet { return []depgraph.Packet{pkt(b, "e10", "t")} }),
			repeat(9, 2, func(b float64) []depgraph.Packet { return []depgraph.Packet{pkt(b+0.7, "e9", "t")} })...),
		// NaN and infinite times: their flows are unusable, but they leave
		// ExtractFlows' output out of start order around them.
		"non-finite-times": repeat(40, 3, func(b float64) []depgraph.Packet {
			n := fmt.Sprint(int(b / 3))
			return []depgraph.Packet{
				pkt(math.NaN(), "n"+n, "x"), pkt(b, "a", "x"), pkt(b+0.2, "x", "y"), pkt(b+0.4, "x", "z"),
				pkt(math.Inf(1), "x", "i"+n), pkt(math.Inf(-1), "j"+n, "y"), pkt(b+0.7, "y", "z"), pkt(math.NaN(), "x", "k"+n),
			}
		}),
		// Continuous traffic: one endless flow per edge, no edges.
		"stream": repeat(2000, 0.05, func(b float64) []depgraph.Packet {
			return []depgraph.Packet{pkt(b, "pe1", "pe3"), pkt(b+0.01, "pe3", "pe6"), pkt(b+0.02, "pe6", "pe7")}
		}),
	}
}

// randomTrace draws n packets among a few names on a coarse time grid, so
// timestamps collide and flows overlap in every order.
func randomTrace(rng *rand.Rand, n int) []depgraph.Packet {
	names := []string{"a", "b", "c", "d", "e"}
	pkts := make([]depgraph.Packet, n)
	for i := range pkts {
		pkts[i] = pkt(float64(rng.Intn(400))*0.05, names[rng.Intn(len(names))], names[rng.Intn(len(names))])
	}
	return pkts
}

// meshCapture is the packet capture of a generated mesh, as the benchmark
// and the evaluation harness feed Discover.
func meshCapture(t testing.TB, params string, seed int64, seconds int) []depgraph.Packet {
	t.Helper()
	p, err := meshgen.ParseParams(params)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := meshgen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cloudsim.New(mesh.SpecWithTrace(seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	return sim.DependencyTrace(seconds, seed)
}

func TestDiscoverMatchesReference(t *testing.T) {
	configs := []depgraph.DiscoverConfig{
		{},
		{Delay: 0.25, MinFlows: 3, MinConfidence: 0.05},
		{GapThreshold: 2, ReplyWindow: 0.01, MaxFlowDuration: 5},
	}
	for name, pkts := range syntheticTraces() {
		for i, cfg := range configs {
			t.Run(fmt.Sprintf("%s/cfg%d", name, i), func(t *testing.T) {
				checkMatchesReference(t, pkts, cfg)
			})
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		pkts := randomTrace(rng, 50+rng.Intn(800))
		t.Run(fmt.Sprintf("random-%02d", i), func(t *testing.T) {
			for _, cfg := range configs {
				checkMatchesReference(t, pkts, cfg)
			}
		})
	}
	meshes := []struct {
		params  string
		seeds   []int64
		seconds int
	}{
		{"n=12,fanout=2,depth=3,seed=25", []int64{1, 2, 3}, 300},
		{"n=32,fanout=3,depth=4,seed=24", []int64{4001, 4002}, 600},
		{"n=128,fanout=3,depth=6,cycle=0.05,seed=22", []int64{4001}, 900},
	}
	for _, m := range meshes {
		for _, seed := range m.seeds {
			t.Run(fmt.Sprintf("mesh/%s/%d", m.params, seed), func(t *testing.T) {
				pkts := meshCapture(t, m.params, seed, m.seconds)
				if depgraph.Discover(pkts, depgraph.DiscoverConfig{}).Empty() {
					t.Fatal("capture produced no edges; the comparison would be vacuous")
				}
				checkMatchesReference(t, pkts, depgraph.DiscoverConfig{})
			})
		}
	}
}

// FuzzDiscover feeds Discover traces with NaN, ±Inf, duplicate and
// out-of-order times and arbitrary names, and requires the reference's
// bytes. Each packet takes 10 bytes: a time selector and 8 time bytes,
// then a source/destination byte.
func FuzzDiscover(f *testing.F) {
	seed := func(ts ...float64) []byte {
		var b []byte
		for i, t := range ts {
			b = append(b, 0)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
			b = append(b, byte(i*7))
		}
		return b
	}
	f.Add(seed(0, 0.1, 0.1, 1.1, 5, 3, 2.2), "x")
	f.Add(seed(math.NaN(), 1, math.Inf(1), math.Inf(-1), 1, 0.5), "")
	f.Add(seed(3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), "svc")
	f.Fuzz(func(t *testing.T, data []byte, prefix string) {
		names := [4]string{prefix + "a", prefix + "b", "c", prefix}
		var pkts []depgraph.Packet
		for len(data) >= 10 {
			var tm float64
			switch sel := data[0]; {
			case sel < 200:
				// Raw bits: NaN payloads, infinities, subnormals, huge times.
				tm = math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			default:
				// A small grid, so times collide and windows overlap.
				tm = float64(data[1]%64) * 0.125
			}
			sd := data[9]
			pkts = append(pkts, pkt(tm, names[sd&3], names[(sd>>2)&3]))
			data = data[10:]
		}
		// Repeat the trace a dozen times, shifted, so components clear
		// MinFlows and the windows see real evidence.
		n := len(pkts)
		for r := 1; r < 12 && n > 0; r++ {
			for _, p := range pkts[:n] {
				pkts = append(pkts, pkt(p.Time+float64(r)*9, p.Src, p.Dst))
			}
		}
		checkMatchesReference(t, pkts, depgraph.DiscoverConfig{})
	})
}

// BenchmarkModuleDiscover times Discover on a capture the size of the
// benchmark's violation-storm workload: a 128-component mesh over 2400 s.
func BenchmarkModuleDiscover(b *testing.B) {
	pkts := meshCapture(b, "n=128,fanout=3,depth=6,cycle=0.05,seed=22", 4001, 2400)
	b.ReportAllocs()
	for b.Loop() {
		depgraph.Discover(pkts, depgraph.DiscoverConfig{})
	}
}
