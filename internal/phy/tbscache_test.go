package phy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestTBSCacheMatchesTBS sweeps the scheduler's whole input space for
// both MCS tables and checks the memoized path returns exactly what the
// direct TS 38.214 computation returns — including the DMRS clamp the
// scheduler applies for short symbol allocations.
func TestTBSCacheMatchesTBS(t *testing.T) {
	symbols := []int{1, 2, 4, 10, 13, 14}
	prbs := []int{1, 11, 51, 245, 273, 1023}
	for _, table := range []MCSTable{MCSTable64QAM, MCSTable256QAM} {
		for _, dmrs := range []int{12, 24} {
			cache := NewTBSCache(table, dmrs, 0)
			for _, sym := range symbols {
				for _, rb := range prbs {
					for mcs := uint8(0); mcs <= table.MaxIndex(); mcs++ {
						for layers := 1; layers <= 4; layers++ {
							row, err := table.Lookup(mcs)
							if err != nil {
								t.Fatal(err)
							}
							d := dmrs
							if m := SubcarriersPerRB * sym; d > m {
								d = m
							}
							want, wantErr := TBS(TBSParams{
								Symbols: sym, DMRSPerPRB: d, PRBs: rb,
								MCS: row, Layers: layers,
							})
							// Twice: the first call fills the cache, the
							// second must hit it.
							for pass := 0; pass < 2; pass++ {
								got, gotErr := cache.TBS(sym, rb, mcs, layers)
								if (gotErr == nil) != (wantErr == nil) {
									t.Fatalf("table=%v dmrs=%d sym=%d rb=%d mcs=%d layers=%d: err %v, want %v",
										table, dmrs, sym, rb, mcs, layers, gotErr, wantErr)
								}
								if got != want {
									t.Fatalf("table=%v dmrs=%d sym=%d rb=%d mcs=%d layers=%d: TBS %d, want %d",
										table, dmrs, sym, rb, mcs, layers, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTBSCacheRejectsBadInputs mirrors TBS's own validation on the
// uncached path.
func TestTBSCacheRejectsBadInputs(t *testing.T) {
	cache := NewTBSCache(MCSTable256QAM, 12, 0)
	if _, err := cache.TBS(13, 100, 99, 2); err == nil {
		t.Error("MCS 99: want error")
	}
	if _, err := cache.TBS(0, 100, 10, 2); err == nil {
		t.Error("symbols 0: want error")
	}
	if _, err := cache.TBS(13, 0, 10, 2); err == nil {
		t.Error("PRBs 0: want error")
	}
	if _, err := cache.TBS(13, 100, 10, 5); err == nil {
		t.Error("layers 5: want error")
	}
	if _, err := NewTBSCache(MCSTable(9), 12, 0).TBS(13, 100, 10, 2); err == nil {
		t.Error("unknown table: want error")
	}
}

// tbsCacheID names one carrier configuration of FuzzTBSCache.
type tbsCacheID struct {
	table          MCSTable
	dmrs, overhead int
}

// fuzzTBSCaches keeps one cache per configuration across fuzz calls, so
// later inputs probe tables that earlier ones filled and grew.
var fuzzTBSCaches = map[tbsCacheID]*TBSCache{}

// directTBS is the uncached computation a carrier's TBSCache stands for:
// the package-level TBS with the carrier's DMRS clamp.
func directTBS(id tbsCacheID, symbols, prbs int, mcs uint8, layers int) (int, error) {
	row, err := id.table.Lookup(mcs)
	if err != nil {
		return 0, err
	}
	dmrs := min(id.dmrs, SubcarriersPerRB*symbols)
	return TBS(TBSParams{
		Symbols: symbols, DMRSPerPRB: dmrs, OverheadPerPRB: id.overhead,
		PRBs: prbs, MCS: row, Layers: layers,
	})
}

// FuzzTBSCache checks TBSCache.TBS against directTBS, value and error,
// over symbols 0–15, PRBs 0–1100 (both sides of the 10-bit key), MCS
// 0–31, layers 0–5, both tables and several DMRS/overhead settings,
// valid or not. Each input checks its own tuple twice (miss, then hit)
// and then a burst of generated tuples, enough to grow a fresh table
// past its initial size. A quarter of the burst repeats earlier tuples;
// some of the rest are key neighbours of earlier tuples, one symbol
// apart and 1024 PRBs the other way, which would share a key if PRBs
// past the 10-bit field were packed.
func FuzzTBSCache(f *testing.F) {
	f.Add(int64(1), uint8(13), uint16(273), uint8(27), uint8(4), true, uint8(2), uint8(0))
	f.Add(int64(7), uint8(2), uint16(1023), uint8(28), uint8(1), false, uint8(5), uint8(1))
	f.Add(int64(-3), uint8(14), uint16(1024), uint8(31), uint8(5), true, uint8(4), uint8(4))
	f.Add(int64(2024), uint8(0), uint16(0), uint8(0), uint8(0), false, uint8(0), uint8(3))
	dmrsChoices := []int{0, 6, 12, 24, 36, 200}
	overheadChoices := []int{0, 6, 12, 18, 5}
	f.Fuzz(func(t *testing.T, seed int64, sym uint8, prbs uint16, mcs uint8, layers uint8, table256 bool, dmrsSel, ohSel uint8) {
		id := tbsCacheID{table: MCSTable64QAM, dmrs: dmrsChoices[int(dmrsSel)%len(dmrsChoices)], overhead: overheadChoices[int(ohSel)%len(overheadChoices)]}
		if table256 {
			id.table = MCSTable256QAM
		}
		cache := fuzzTBSCaches[id]
		if cache == nil {
			cache = NewTBSCache(id.table, id.dmrs, id.overhead)
			fuzzTBSCaches[id] = cache
		}
		check := func(sym, prbs int, mcs uint8, layers int) {
			want, wantErr := directTBS(id, sym, prbs, mcs, layers)
			got, gotErr := cache.TBS(sym, prbs, mcs, layers)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%+v sym=%d prbs=%d mcs=%d layers=%d: cache (%d, %v), direct (%d, %v)",
					id, sym, prbs, mcs, layers, got, gotErr, want, wantErr)
			}
		}
		s, p, m, l := int(sym%16), int(prbs%1101), mcs%32, int(layers%6)
		check(s, p, m, l)
		check(s, p, m, l)

		type tuple struct {
			sym, prbs int
			mcs       uint8
			layers    int
		}
		rng := rand.New(rand.NewSource(seed))
		var seen []tuple
		for range 4096 {
			var u tuple
			switch {
			case len(seen) > 0 && rng.Intn(4) == 0:
				u = seen[rng.Intn(len(seen))]
			case len(seen) > 0 && rng.Intn(8) == 0:
				u = seen[rng.Intn(len(seen))]
				if u.prbs >= 1024 {
					u.sym, u.prbs = u.sym+1, u.prbs-1024
				} else {
					u.sym, u.prbs = u.sym-1, u.prbs+1024
				}
			case rng.Intn(4) == 0: // anywhere, unpackable and invalid included
				u = tuple{rng.Intn(16), rng.Intn(1101), uint8(rng.Intn(32)), rng.Intn(6)}
			default: // packable
				u = tuple{1 + rng.Intn(14), 1 + rng.Intn(1023), uint8(rng.Intn(29)), 1 + rng.Intn(4)}
			}
			seen = append(seen, u)
			check(u.sym, u.prbs, u.mcs, u.layers)
		}
	})
}

// TestDerivedTablesBitIdentical locks the init-time precomputed spectral
// efficiency and required-SINR columns to the MCS methods they replace.
func TestDerivedTablesBitIdentical(t *testing.T) {
	for _, table := range []MCSTable{MCSTable64QAM, MCSTable256QAM} {
		for i := uint8(0); i <= table.MaxIndex(); i++ {
			row, err := table.Lookup(i)
			if err != nil {
				t.Fatal(err)
			}
			req, err := table.RequiredSINRdB(i)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(req) != math.Float64bits(row.RequiredSINRdB()) {
				t.Errorf("table %v mcs %d: derived reqSINR %v != %v", table, i, req, row.RequiredSINRdB())
			}
			d := table.derived()
			if math.Float64bits(d.eff[i]) != math.Float64bits(row.SpectralEfficiency()) {
				t.Errorf("table %v mcs %d: derived eff %v != %v", table, i, d.eff[i], row.SpectralEfficiency())
			}
		}
		if _, err := table.RequiredSINRdB(table.MaxIndex() + 1); err == nil {
			t.Errorf("table %v: out-of-range index accepted", table)
		}
	}
	if _, err := MCSTable(9).RequiredSINRdB(0); err == nil {
		t.Error("unknown table accepted")
	}
}

// TestHighestMCSForEfficiencyMatchesScan locks the derived-table scan to
// a row-by-row recomputation across a dense efficiency sweep.
func TestHighestMCSForEfficiencyMatchesScan(t *testing.T) {
	for _, table := range []MCSTable{MCSTable64QAM, MCSTable256QAM} {
		rows, err := table.rows()
		if err != nil {
			t.Fatal(err)
		}
		for se := -0.5; se < 9; se += 0.01 {
			want := uint8(0)
			for _, m := range rows {
				if m.SpectralEfficiency() <= se {
					want = m.Index
				} else {
					break
				}
			}
			if got := table.HighestMCSForEfficiency(se); got != want {
				t.Fatalf("table %v se=%.3f: got %d, want %d", table, se, got, want)
			}
		}
	}
	if MCSTable(9).HighestMCSForEfficiency(3) != 0 {
		t.Error("unknown table: want index 0")
	}
}

// BenchmarkTBSCached measures the memoized slot-path lookup (compare with
// BenchmarkTBS, the direct ladder).
func BenchmarkTBSCached(b *testing.B) {
	cache := NewTBSCache(MCSTable256QAM, 12, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbs, err := cache.TBS(13, 245, 22, 4)
		if err != nil {
			b.Fatal(err)
		}
		sinkInt = tbs
	}
}

var sinkInt int
