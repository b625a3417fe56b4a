package xcol

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/midband5g/midband/internal/xcal"
)

// ErrClosed is returned by writes after Close.
var ErrClosed = errors.New("xcol: writer is closed")

// Writer streams KPI records and signaling frames into a columnar
// trace. Memory is bounded by one block of records plus one encode
// buffer and the (capped) signaling buffer — independent of how many
// records pass through, so campaigns of any length write in O(block).
//
// Writer implements xcal.TraceWriter. Flush pushes completed blocks to
// the underlying writer; Close encodes the final partial block, the
// buffered signaling, the index and the tail. A trace without a Close
// is still recoverable through the Scanner's sequential fallback.
type Writer struct {
	w      *bufio.Writer
	err    error
	closed bool
	off    uint64

	blk      Block
	blkFirst uint64 // absolute record index of blk's first record
	enc      blockEncoder
	buf      []byte // block payload staging
	auxBuf   []byte // per-frame encode scratch

	aux      []byte // pending aux sub-frames
	auxCount uint32
	auxFirst uint64 // KPI position of the first pending sub-frame

	nKPI  uint64
	index []IndexEntry
	head  [headerSize]byte // block header staging (a local would escape to the heap)
}

// NewWriter writes the file header and metadata block to w.
func NewWriter(w io.Writer, meta xcal.Meta) (*Writer, error) {
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("xcol: encoding meta: %w", err)
	}
	return NewWriterMetaJSON(w, mb)
}

// NewWriterMetaJSON is NewWriter with the metadata JSON supplied
// verbatim — the conversion path uses it to preserve the source
// trace's meta bytes exactly.
func NewWriterMetaJSON(w io.Writer, metaJSON []byte) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := tw.w.Write(Magic[:]); err != nil {
		return nil, err
	}
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], Version)
	if _, err := tw.w.Write(v[:]); err != nil {
		return nil, err
	}
	tw.off = fileHeaderSize
	tw.writeBlock(kindMeta, 1, 0, 0, metaJSON)
	return tw, tw.err
}

// writeBlock emits one block (header + payload) and records its index
// entry.
func (w *Writer) writeBlock(kind uint8, count uint32, first uint64, firstSlot int64, payload []byte) {
	if w.err != nil {
		return
	}
	crc := checksum(payload)
	head := w.head[:]
	head[0] = kind
	binary.LittleEndian.PutUint32(head[1:], count)
	binary.LittleEndian.PutUint32(head[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[9:], crc)
	if _, err := w.w.Write(head); err != nil {
		w.err = err
		return
	}
	if _, err := w.w.Write(payload); err != nil {
		w.err = err
		return
	}
	w.index = append(w.index, IndexEntry{
		Kind:      kind,
		Offset:    w.off,
		Len:       uint32(len(payload)),
		Count:     count,
		First:     first,
		FirstSlot: firstSlot,
		CRC:       crc,
	})
	w.off += headerSize + uint64(len(payload))
}

func (w *Writer) flushKPI() {
	if w.blk.Count == 0 || w.err != nil {
		return
	}
	w.buf = w.enc.encodeKPIBlock(w.buf[:0], &w.blk)
	w.writeBlock(kindKPI, uint32(w.blk.Count), w.blkFirst, w.blk.Slot[0], w.buf)
	w.blk.reset()
	w.blkFirst = w.nKPI
}

func (w *Writer) flushAux() {
	if w.auxCount == 0 || w.err != nil {
		return
	}
	w.writeBlock(kindAux, w.auxCount, w.auxFirst, 0, w.aux)
	w.aux = w.aux[:0]
	w.auxCount = 0
}

// WriteKPI appends a slot KPI record, flushing a block when full.
func (w *Writer) WriteKPI(k *xcal.SlotKPI) error {
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	w.blk.appendKPI(k)
	w.nKPI++
	if w.blk.Count >= BlockCap {
		w.flushKPI()
	}
	return w.err
}

// appendAux buffers one signaling sub-frame:
// [type u8][pos uvarint][len uvarint][payload], where pos is the
// number of KPI records written before the frame — the interleaving
// key a row conversion replays.
func (w *Writer) appendAux(t xcal.FrameType, payload []byte) error {
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	if w.auxCount == 0 {
		w.auxFirst = w.nKPI
	}
	w.aux = append(w.aux, uint8(t))
	w.aux = binary.AppendUvarint(w.aux, w.nKPI)
	w.aux = appendUvarintBytes(w.aux, payload)
	w.auxCount++
	if len(w.aux) >= auxFlushBytes {
		w.flushAux()
	}
	return w.err
}

// WriteMIB appends a MIB capture.
func (w *Writer) WriteMIB(m *xcal.MIB) error {
	w.auxBuf = m.AppendTo(w.auxBuf[:0])
	return w.appendAux(xcal.FrameMIB, w.auxBuf)
}

// WriteSIB1 appends a SIB1 capture.
func (w *Writer) WriteSIB1(s *xcal.SIB1) error {
	w.auxBuf = s.AppendTo(w.auxBuf[:0])
	return w.appendAux(xcal.FrameSIB1, w.auxBuf)
}

// WriteDCI appends a DCI capture.
func (w *Writer) WriteDCI(d *xcal.DCI) error {
	w.auxBuf = d.AppendTo(w.auxBuf[:0])
	return w.appendAux(xcal.FrameDCI, w.auxBuf)
}

// WriteEvent appends an application event annotation.
func (w *Writer) WriteEvent(e xcal.Event) error {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("xcol: encoding event: %w", err)
	}
	return w.appendAux(xcal.FrameEvent, b)
}

// writeRawAux appends a signaling frame payload verbatim (conversion
// path).
func (w *Writer) writeRawAux(t xcal.FrameType, payload []byte) error {
	return w.appendAux(t, payload)
}

// Records returns how many KPI records have been written.
func (w *Writer) Records() uint64 { return w.nKPI }

// Flush pushes completed blocks to the underlying writer. The current
// partial block stays buffered — only Close finalizes the stream.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Close encodes the final partial block and buffered signaling, writes
// the index block and tail, and flushes. It does not close the
// underlying writer. Close is idempotent; writes after Close fail with
// ErrClosed.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.flushKPI()
	w.flushAux()
	if w.err != nil {
		return w.err
	}
	idx := w.buf[:0]
	idx = binary.AppendUvarint(idx, uint64(len(w.index)))
	for _, e := range w.index {
		idx = append(idx, e.Kind)
		idx = binary.LittleEndian.AppendUint64(idx, e.Offset)
		idx = binary.LittleEndian.AppendUint32(idx, e.Len)
		idx = binary.LittleEndian.AppendUint32(idx, e.Count)
		idx = binary.LittleEndian.AppendUint64(idx, e.First)
		idx = binary.LittleEndian.AppendUint64(idx, uint64(e.FirstSlot))
		idx = binary.LittleEndian.AppendUint32(idx, e.CRC)
	}
	w.buf = idx
	indexOff := w.off + headerSize // tail points at the index payload
	crc := checksum(idx)
	head := w.head[:]
	head[0] = kindIndex
	binary.LittleEndian.PutUint32(head[1:], uint32(len(w.index)))
	binary.LittleEndian.PutUint32(head[5:], uint32(len(idx)))
	binary.LittleEndian.PutUint32(head[9:], crc)
	if _, err := w.w.Write(head); err != nil {
		w.err = err
		return w.err
	}
	if _, err := w.w.Write(idx); err != nil {
		w.err = err
		return w.err
	}
	var tail [tailSize]byte
	binary.LittleEndian.PutUint64(tail[0:], indexOff)
	binary.LittleEndian.PutUint32(tail[8:], uint32(len(idx)))
	binary.LittleEndian.PutUint32(tail[12:], crc)
	copy(tail[16:], tailMagic[:])
	if _, err := w.w.Write(tail[:]); err != nil {
		w.err = err
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// CreateFileVia creates a columnar trace file on disk, with the file
// sink wrapped by wrap before the writer buffers on top of it — the
// hook fault injection uses to make trace-sink I/O errors reachable in
// tests and campaigns. A nil wrap writes straight to the file. Errors
// the wrapper injects surface through the Writer's sticky-error path.
func CreateFileVia(path string, meta xcal.Meta, wrap func(io.Writer) io.Writer) (*Writer, *os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	var sink io.Writer = f
	if wrap != nil {
		sink = wrap(f)
	}
	w, err := NewWriter(sink, meta)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, nil, err
	}
	return w, f, nil
}
