package xcal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// Trace file layout:
//
//	magic "XCAL5GMB" | version u16 | frames...
//
// Each frame is [type u8][length u32 LE][payload]. The first frame must be
// a Meta frame. ErrEndOfTrace (io.EOF) ends the stream cleanly.

var traceMagic = [8]byte{'X', 'C', 'A', 'L', '5', 'G', 'M', 'B'}

// TraceMagic is the row-container magic, exported so tools can sniff a
// file's format before choosing a reader.
var TraceMagic = traceMagic

// TraceWriter is the sink a capture session writes through — KPI
// records plus control-plane signaling and event annotations. Runs
// write the columnar xcol.Writer; the row Writer here implements it
// too, so tests can capture the same session into either container.
// Close finalizes the stream (for containers with a footer this is
// what makes the file complete); Flush only pushes buffered bytes.
type TraceWriter interface {
	WriteKPI(k *SlotKPI) error
	WriteMIB(m *MIB) error
	WriteSIB1(s *SIB1) error
	WriteDCI(d *DCI) error
	WriteEvent(e Event) error
	Flush() error
	Close() error
}

// TraceVersion is the current format version.
const TraceVersion uint16 = 1

// FrameType tags the payload of a trace frame.
type FrameType uint8

const (
	// FrameMeta is the JSON-encoded trace metadata.
	FrameMeta FrameType = 1
	// FrameKPI is a SlotKPI record.
	FrameKPI FrameType = 2
	// FrameMIB is a MIB capture.
	FrameMIB FrameType = 3
	// FrameSIB1 is a SIB1 capture.
	FrameSIB1 FrameType = 4
	// FrameDCI is a DCI capture.
	FrameDCI FrameType = 5
	// FrameEvent is a free-form application event annotation.
	FrameEvent FrameType = 6
)

// Meta describes a capture session, mirroring the campaign dimensions of
// the paper's Table 1.
type Meta struct {
	Operator     string        `json:"operator"`
	Country      string        `json:"country"`
	City         string        `json:"city"`
	CarrierLabel string        `json:"carrier_label"`
	Scenario     string        `json:"scenario"`
	SlotDuration time.Duration `json:"slot_duration"`
	Start        time.Time     `json:"start"`
	Notes        string        `json:"notes,omitempty"`
}

// Event is a timestamped application-level annotation (e.g. video chunk
// fetches) that lets the analysis cross-correlate PHY KPIs with application
// decisions, as §6 of the paper does.
type Event struct {
	Time time.Duration `json:"time"`
	Kind string        `json:"kind"`
	Data string        `json:"data,omitempty"`
}

// Writer writes a trace stream.
type Writer struct {
	w    *bufio.Writer
	buf  []byte
	head [5]byte
	err  error
}

// NewWriter writes the trace header and metadata frame to w.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("xcal: encoding meta: %w", err)
	}
	return NewWriterMetaJSON(w, mb)
}

// NewWriterMetaJSON is NewWriter with the metadata JSON supplied
// verbatim, so a format conversion keeps it byte for byte.
func NewWriterMetaJSON(w io.Writer, metaJSON []byte) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := tw.w.Write(traceMagic[:]); err != nil {
		return nil, err
	}
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], TraceVersion)
	if _, err := tw.w.Write(v[:]); err != nil {
		return nil, err
	}
	return tw, tw.WriteFrame(FrameMeta, metaJSON)
}

// WriteFrame appends one frame with the payload verbatim. The typed
// writers below encode their record and call it; format conversion calls
// it directly to keep signaling payloads byte for byte.
func (w *Writer) WriteFrame(t FrameType, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	w.head[0] = uint8(t)
	binary.LittleEndian.PutUint32(w.head[1:], uint32(len(payload)))
	if _, err := w.w.Write(w.head[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = err
	}
	return w.err
}

// WriteKPI appends a slot KPI record.
func (w *Writer) WriteKPI(k *SlotKPI) error {
	w.buf = k.AppendTo(w.buf[:0])
	return w.WriteFrame(FrameKPI, w.buf)
}

// WriteMIB appends a MIB capture.
func (w *Writer) WriteMIB(m *MIB) error {
	w.buf = m.AppendTo(w.buf[:0])
	return w.WriteFrame(FrameMIB, w.buf)
}

// WriteSIB1 appends a SIB1 capture.
func (w *Writer) WriteSIB1(s *SIB1) error {
	w.buf = s.AppendTo(w.buf[:0])
	return w.WriteFrame(FrameSIB1, w.buf)
}

// WriteDCI appends a DCI capture.
func (w *Writer) WriteDCI(d *DCI) error {
	w.buf = d.AppendTo(w.buf[:0])
	return w.WriteFrame(FrameDCI, w.buf)
}

// WriteEvent appends an application event annotation.
func (w *Writer) WriteEvent(e Event) error {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("xcal: encoding event: %w", err)
	}
	return w.WriteFrame(FrameEvent, b)
}

// Flush flushes buffered frames to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Close finalizes the stream. The row container has no footer, so
// Close is just Flush; it exists to satisfy TraceWriter.
func (w *Writer) Close() error { return w.Flush() }

// Reader reads a trace stream. Next decodes each frame into storage owned
// by the Reader; the returned pointers are valid only until the following
// Next call (NoCopy semantics — copy if you need to retain them).
type Reader struct {
	r        *bufio.Reader
	meta     Meta
	metaJSON []byte // the metadata frame's payload, verbatim
	buf      []byte
	head     [5]byte // frame header scratch; a local would escape through io.ReadFull

	// Decoded frame storage, reused across Next calls.
	KPI   SlotKPI
	MIB   MIB
	SIB1  SIB1
	DCI   DCI
	Event Event
}

// NewReader validates the header and reads the metadata frame.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{r: bufio.NewReaderSize(r, 1<<16)}
	var head [10]byte
	if _, err := io.ReadFull(tr.r, head[:]); err != nil {
		return nil, fmt.Errorf("xcal: reading trace header: %w", err)
	}
	if [8]byte(head[:8]) != traceMagic {
		return nil, errors.New("xcal: bad magic: not an XCAL trace")
	}
	if v := binary.LittleEndian.Uint16(head[8:]); v != TraceVersion {
		return nil, fmt.Errorf("xcal: unsupported trace version %d", v)
	}
	t, payload, err := tr.NextFrame()
	if err != nil {
		return nil, fmt.Errorf("xcal: reading meta frame: %w", err)
	}
	if t != FrameMeta {
		return nil, fmt.Errorf("xcal: first frame is %d, want meta", t)
	}
	if err := json.Unmarshal(payload, &tr.meta); err != nil {
		return nil, fmt.Errorf("xcal: decoding meta: %w", err)
	}
	tr.metaJSON = append([]byte(nil), payload...)
	return tr, nil
}

// Meta returns the trace metadata.
func (r *Reader) Meta() Meta { return r.meta }

// MetaJSON returns the metadata frame's payload verbatim.
func (r *Reader) MetaJSON() []byte { return r.metaJSON }

const maxFrameSize = 1 << 20

// NextFrame reads the next frame without decoding it. The payload is
// owned by the Reader and valid until the following NextFrame or Next
// call. It returns io.EOF at end of trace.
func (r *Reader) NextFrame() (FrameType, []byte, error) {
	if _, err := io.ReadFull(r.r, r.head[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("xcal: reading frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(r.head[1:])
	if n > maxFrameSize {
		return 0, nil, fmt.Errorf("xcal: frame of %d bytes exceeds limit", n)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return 0, nil, fmt.Errorf("xcal: reading frame payload: %w", err)
	}
	return FrameType(r.head[0]), r.buf, nil
}

// Next reads the next frame, decodes it into the Reader's reusable fields
// (KPI, MIB, SIB1, DCI, Event according to the returned type) and returns
// its type. It returns io.EOF at end of trace.
func (r *Reader) Next() (FrameType, error) {
	t, payload, err := r.NextFrame()
	if err != nil {
		return 0, err
	}
	switch t {
	case FrameKPI:
		return t, DecodeSlotKPI(payload, &r.KPI)
	case FrameMIB:
		return t, DecodeMIB(payload, &r.MIB)
	case FrameSIB1:
		return t, DecodeSIB1(payload, &r.SIB1)
	case FrameDCI:
		return t, DecodeDCI(payload, &r.DCI)
	case FrameEvent:
		r.Event = Event{}
		return t, json.Unmarshal(payload, &r.Event)
	case FrameMeta:
		return t, json.Unmarshal(payload, &r.meta)
	default:
		return t, fmt.Errorf("xcal: unknown frame type %d", t)
	}
}
