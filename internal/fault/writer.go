package fault

import (
	"io"

	"github.com/midband5g/midband/internal/simrand"
)

// ioWriter aliases io.Writer so fault.go stays import-light.
type ioWriter = io.Writer

// Writer wraps an io.Writer with deterministic write-error injection:
// each Write draws once from the injector's own RNG and fails with
// [ErrInjectedIO] at the configured probability. Once a write fails the
// writer stays failed (a broken sink does not heal), mirroring how a
// real trace sink dies — disk full, device yanked — partway through a
// capture.
type Writer struct {
	w    io.Writer
	rng  *simrand.Rand
	prob float64
	err  error
}

// NewWriter builds the injecting writer.
func NewWriter(w io.Writer, prob float64, seed int64) *Writer {
	return &Writer{w: w, rng: simrand.New(seed), prob: prob}
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.rng.Float64() < w.prob {
		w.err = ErrInjectedIO
		return 0, w.err
	}
	return w.w.Write(p)
}
