// Command xcaldump inspects trace files in either container: the
// columnar block format (.xcol) that campaigns write, or the row
// XCAL-style format (.xcal). The container is auto-detected from the
// magic bytes, never the file name. It prints the session metadata, the
// channel configuration recovered from the captured signaling (the
// Appendix 10.1 procedure, run on the trace's signaling blocks), and
// aggregate KPI statistics streamed block by block through one-pass
// mergeable aggregates: a dump holds the PCell MCS and rank series that
// V(128ms) needs, never the whole trace. A row trace is first converted
// to a temporary columnar file and dumped through the same path.
// Corrupt KPI blocks are skipped and reported.
//
// Usage:
//
//	xcaldump [-records N] [-blocks] trace...
//	xcaldump -convert DST SRC
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/midband5g/midband/internal/analysis"
	"github.com/midband5g/midband/internal/config"
	"github.com/midband5g/midband/internal/report"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xcaldump: ")
	showRecords := flag.Int("records", 0, "print the first N KPI records")
	showBlocks := flag.Bool("blocks", false, "list the block index of columnar traces")
	convert := flag.String("convert", "", "convert the input trace into this path (direction chosen by magic: .xcal ↔ .xcol)")
	flag.Parse()
	if *convert != "" {
		if flag.NArg() != 1 {
			log.Fatal("usage: xcaldump -convert DST SRC")
		}
		dir, n, err := xcol.ConvertFile(flag.Arg(0), *convert)
		if err != nil {
			log.Fatalf("%s: %v", flag.Arg(0), err)
		}
		fmt.Printf("%s: %s, %d KPI records -> %s\n", flag.Arg(0), dir, n, *convert)
		return
	}
	if flag.NArg() == 0 {
		log.Fatal("usage: xcaldump [-records N] [-blocks] trace...")
	}
	for _, path := range flag.Args() {
		if err := dump(os.Stdout, path, *showRecords, *showBlocks); err != nil {
			log.Fatalf("%s: %v", path, err)
		}
	}
}

// dump prints one trace. A row trace is converted to a temporary
// columnar file, so both containers share one read path; the block
// index of that temporary file is not shown.
func dump(out io.Writer, path string, showRecords int, showBlocks bool) error {
	format, err := xcol.DetectFormat(path)
	if err != nil {
		return err
	}
	if format == "xcol" {
		return dumpCol(out, path, path, showRecords, showBlocks)
	}
	tmp, err := os.CreateTemp("", "xcaldump-*.xcol")
	if err != nil {
		return err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	if _, _, err := xcol.ConvertFile(path, tmp.Name()); err != nil {
		return err
	}
	return dumpCol(out, path, tmp.Name(), showRecords, false)
}

// printExtraction renders the recovered channel configuration.
func printExtraction(out io.Writer, path string, ex *config.Extraction) {
	meta := ex.Meta
	fmt.Fprintf(out, "%s\n  operator=%s country=%s city=%s scenario=%s slot=%v\n",
		path, meta.Operator, meta.Country, meta.City, meta.Scenario, meta.SlotDuration)
	for _, c := range ex.Carriers {
		fmt.Fprintf(out, "  cell %d: %s %d MHz (N_RB %d, %d kHz, %s",
			c.CellID, c.Band, c.BandwidthMHz, c.NRB, c.SCSkHz, c.Duplex)
		if c.TDDPattern != "" {
			fmt.Fprintf(out, " %s", c.TDDPattern)
		}
		fmt.Fprintf(out, ") layers=%d table=%d dci1_1=%.0f%%", c.MaxMIMOLayers, c.MCSTable, 100*c.DCI11Share)
		if c.Note != "" {
			fmt.Fprintf(out, "  [!] %s", c.Note)
		}
		fmt.Fprintln(out)
	}
}

// kpiStats is the streaming KPI reduction of a dump.
type kpiStats struct {
	dlBits, ulBits float64
	records        int
	minT, maxT     float64
	sinr, rsrq     analysis.Accum
	sinrS, rsrqS   *analysis.Sketch
	mcs, rank      []float64
}

func newKPIStats() *kpiStats {
	return &kpiStats{minT: -1, sinrS: analysis.NewSketch(), rsrqS: analysis.NewSketch()}
}

func (st *kpiStats) add(k *xcal.SlotKPI) {
	st.records++
	if t := k.Time.Seconds(); true {
		if st.minT < 0 || t < st.minT {
			st.minT = t
		}
		if t > st.maxT {
			st.maxT = t
		}
	}
	switch k.Dir {
	case xcal.DL:
		st.dlBits += float64(k.DeliveredBits)
	case xcal.UL:
		st.ulBits += float64(k.DeliveredBits)
	}
	if k.RAT == xcal.NR && k.Carrier == 0 {
		st.sinr.Add(float64(k.SINRdB))
		st.sinrS.Add(float64(k.SINRdB))
		st.rsrq.Add(float64(k.RSRQdB))
		st.rsrqS.Add(float64(k.RSRQdB))
		if k.Dir == xcal.DL && k.RBs > 0 {
			st.mcs = append(st.mcs, float64(k.MCS))
			st.rank = append(st.rank, float64(k.Rank))
		}
	}
}

func (st *kpiStats) print(out io.Writer) {
	if span := st.maxT - st.minT; span > 0 {
		fmt.Fprintf(out, "  records=%d span=%.1fs DL=%.1f Mbps UL=%.1f Mbps\n",
			st.records, span, st.dlBits/span/1e6, st.ulBits/span/1e6)
	}
	if st.sinr.N > 0 {
		fmt.Fprintf(out, "  PCell: SINR %s\n         RSRQ %s\n",
			report.StreamSummary(st.sinr, st.sinrS), report.StreamSummary(st.rsrq, st.rsrqS))
	}
	if len(st.mcs) > 1 {
		vm, _ := analysis.Variability(st.mcs, 256)
		vr, _ := analysis.Variability(st.rank, 256)
		fmt.Fprintf(out, "  V(128ms): MCS %.3f  MIMO %.3f\n", vm, vr)
	}
}

// dumpColumns projects a dump's scan onto the columns kpiStats.add and
// printRecord read: the others stay undecoded.
const dumpColumns = xcol.AllColumns &^ (1<<xcol.ColRSRPdBm | 1<<xcol.ColPosX | 1<<xcol.ColPosY |
	1<<xcol.ColREs | 1<<xcol.ColServingCell | 1<<xcol.ColHARQRetx | 1<<xcol.ColOutage)

// projectedRow fills the fields of k that dumpColumns decodes.
func projectedRow(b *xcol.Block, i int, k *xcal.SlotKPI) {
	k.Slot, k.Time = b.Slot[i], b.Time[i]
	k.Carrier, k.RAT, k.Dir = b.Carrier[i], xcal.RAT(b.RAT[i]), xcal.Direction(b.Dir[i])
	k.CQI, k.MCSTable, k.MCS, k.Rank = b.CQI[i], b.MCSTable[i], b.MCS[i], b.Rank[i]
	k.ACK, k.RBs, k.TBSBits, k.DeliveredBits = b.ACK[i], b.RBs[i], b.TBSBits[i], b.DeliveredBits[i]
	k.SINRdB, k.RSRQdB = b.SINRdB[i], b.RSRQdB[i]
}

func printRecord(out io.Writer, k *xcal.SlotKPI, i int) {
	fmt.Fprintf(out, "  #%d slot=%d %s/%s cqi=%d mcs=%d(t%d) rank=%d rbs=%d tbs=%d ack=%v sinr=%.1f\n",
		i, k.Slot, k.RAT, k.Dir, k.CQI, k.MCS, k.MCSTable, k.Rank, k.RBs, k.TBSBits, k.ACK, k.SINRdB)
}

// dumpCol prints the columnar trace at path under the name name: the
// configuration recovered from its signaling blocks, optionally the
// block index, then KPI statistics streamed block by block. Corrupt KPI
// blocks are skipped and listed at the end.
func dumpCol(out io.Writer, name, path string, showRecords int, showBlocks bool) error {
	s, f, err := xcol.OpenFile(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ex, err := config.Extract(s)
	if err != nil {
		return err
	}
	printExtraction(out, name, ex)

	if showBlocks {
		if s.Sequential() {
			fmt.Fprintf(out, "  index: unusable (%v) — sequential fallback\n", s.IndexErr())
		} else {
			fmt.Fprintf(out, "  index: %d blocks\n", len(s.Index()))
			for i, e := range s.Index() {
				kind := map[uint8]string{1: "meta", 2: "kpi", 3: "aux"}[e.Kind]
				fmt.Fprintf(out, "  block %3d %-4s off=%-8d len=%-7d count=%-5d first=%-7d firstSlot=%d\n",
					i, kind, e.Offset, e.Len, e.Count, e.First, e.FirstSlot)
			}
		}
	}

	st := newKPIStats()
	printed := 0
	var k xcal.SlotKPI
	s.SetProjection(dumpColumns)
	for {
		blk, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i := 0; i < blk.Count; i++ {
			projectedRow(blk, i, &k)
			if printed < showRecords {
				printed++
				printRecord(out, &k, printed)
			}
			st.add(&k)
		}
	}
	st.print(out)
	for _, be := range s.Corrupt() {
		fmt.Fprintf(out, "  [!] skipped block %d at offset %d: %v\n", be.Index, be.Offset, be.Err)
	}
	return nil
}
