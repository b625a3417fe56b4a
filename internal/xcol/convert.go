package xcol

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"github.com/midband5g/midband/internal/xcal"
)

// Format conversion between the row (.xcal) and columnar (.xcol)
// containers. Both directions preserve the metadata JSON and every
// signaling frame payload verbatim, and re-encode KPI records through
// the strict canonical codec — so converting a well-formed trace there
// and back reproduces it byte for byte (enforced by TestConvertRoundTrip
// and the xcaldump convert tests). The row side reads and writes through
// xcal's Reader and Writer, the only row framing.

// ConvertRowToCol reads a row trace from r and writes it as a columnar
// trace to w, returning the number of KPI records converted.
func ConvertRowToCol(r io.Reader, w io.Writer) (uint64, error) {
	rr, err := xcal.NewReader(r)
	if err != nil {
		return 0, err
	}
	cw, err := NewWriterMetaJSON(w, rr.MetaJSON())
	if err != nil {
		return 0, err
	}
	var kpi xcal.SlotKPI
	for {
		t, payload, err := rr.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		switch t {
		case xcal.FrameKPI:
			if err := xcal.DecodeSlotKPI(payload, &kpi); err != nil {
				return 0, err
			}
			if err := cw.WriteKPI(&kpi); err != nil {
				return 0, err
			}
		case xcal.FrameMIB, xcal.FrameSIB1, xcal.FrameDCI, xcal.FrameEvent:
			if err := cw.writeRawAux(t, payload); err != nil {
				return 0, err
			}
		case xcal.FrameMeta:
			return 0, errors.New("xcol: duplicate meta frame in row trace")
		default:
			return 0, fmt.Errorf("xcol: unknown row frame type %d", t)
		}
	}
	if err := cw.Close(); err != nil {
		return 0, err
	}
	return cw.Records(), nil
}

// auxFrame is one buffered signaling frame during columnar→row
// conversion.
type auxFrame struct {
	t       xcal.FrameType
	pos     uint64 // KPI records written before the frame
	ord     int    // arrival order, the tiebreak within a position
	payload []byte
}

// ConvertColToRow reads a columnar trace and writes it as a row trace,
// re-interleaving signaling frames at their recorded KPI positions. It
// returns the number of KPI records converted. Corrupt blocks abort the
// conversion — a converter must not silently drop data.
func ConvertColToRow(r io.ReaderAt, size int64, w io.Writer) (uint64, error) {
	s, err := NewScanner(r, size)
	if err != nil {
		return 0, err
	}
	rw, err := xcal.NewWriterMetaJSON(w, s.MetaJSON())
	if err != nil {
		return 0, err
	}

	// Buffer the signaling frames; they are tiny next to the KPI stream.
	var aux []auxFrame
	err = s.AuxFrames(func(t xcal.FrameType, pos uint64, payload []byte) error {
		aux = append(aux, auxFrame{t: t, pos: pos, ord: len(aux),
			payload: append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		return 0, err
	}
	if len(s.Corrupt()) > 0 {
		return 0, s.Corrupt()[0]
	}
	// Aux blocks are already in file order, but be explicit that the
	// merge key is (position, arrival order).
	sort.SliceStable(aux, func(i, j int) bool { return aux[i].pos < aux[j].pos })

	var (
		nKPI uint64
		ai   int
		kpi  xcal.SlotKPI
	)
	emitAuxThrough := func(pos uint64) error {
		for ai < len(aux) && aux[ai].pos <= pos {
			if err := rw.WriteFrame(aux[ai].t, aux[ai].payload); err != nil {
				return err
			}
			ai++
		}
		return nil
	}
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		for i := 0; i < b.Count; i++ {
			if err := emitAuxThrough(nKPI); err != nil {
				return 0, err
			}
			b.Row(i, &kpi)
			if err := rw.WriteKPI(&kpi); err != nil {
				return 0, err
			}
			nKPI++
		}
	}
	if len(s.Corrupt()) > 0 {
		return 0, s.Corrupt()[0]
	}
	// Frames recorded after the last KPI record.
	if err := emitAuxThrough(math.MaxUint64); err != nil {
		return 0, err
	}
	return nKPI, rw.Flush()
}

// DetectFormat sniffs the container magic of the file at path. It
// returns "xcal" for the row container, "xcol" for the columnar one,
// and an error otherwise.
func DetectFormat(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return "", fmt.Errorf("xcol: reading magic: %w", err)
	}
	switch head {
	case xcal.TraceMagic:
		return "xcal", nil
	case Magic:
		return "xcol", nil
	}
	return "", errors.New("xcol: unrecognized trace magic")
}

// ConvertFile converts the trace at src into the opposite container at
// dst, choosing the direction from src's magic. It returns the
// direction taken ("xcal→xcol" or "xcol→xcal") and the KPI record
// count.
func ConvertFile(src, dst string) (string, uint64, error) {
	format, err := DetectFormat(src)
	if err != nil {
		return "", 0, err
	}
	in, err := os.Open(src)
	if err != nil {
		return "", 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return "", 0, err
	}
	var n uint64
	var dir string
	switch format {
	case "xcal":
		dir = "xcal→xcol"
		n, err = ConvertRowToCol(in, out)
	case "xcol":
		dir = "xcol→xcal"
		fi, serr := in.Stat()
		if serr != nil {
			err = serr
			break
		}
		n, err = ConvertColToRow(in, fi.Size(), out)
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dst)
		return dir, 0, err
	}
	return dir, n, nil
}
