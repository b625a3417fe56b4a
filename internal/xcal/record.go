// Package xcal implements the slot-level KPI trace format that stands in for
// the professional chipset logger (Accuver XCAL) used in the paper's
// campaign: fixed-size per-slot KPI records, control-plane signaling
// captures (MIB, SIB1, DCI) and a framed row trace container with
// metadata. Runs write the columnar container of package xcol, which
// stores these same records and signaling payloads; the row container
// is what `xcaldump -convert` produces and what tests use as an oracle.
//
// The decoder follows the preallocated-decode idiom: Reader.Next decodes
// into reusable storage owned by the Reader, so steady-state reading of
// multi-gigabyte traces does not allocate per record.
package xcal

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Direction labels the link direction of a slot record.
type Direction uint8

const (
	// DL is downlink.
	DL Direction = 0
	// UL is uplink.
	UL Direction = 1
)

func (d Direction) String() string {
	if d == UL {
		return "UL"
	}
	return "DL"
}

// RAT is the radio access technology of a record; NSA uplink traffic can
// ride on either (paper §4.2).
type RAT uint8

const (
	// NR is 5G New Radio.
	NR RAT = 0
	// LTE is the 4G anchor.
	LTE RAT = 1
)

func (r RAT) String() string {
	if r == LTE {
		return "LTE"
	}
	return "NR"
}

// SlotKPI is one slot's worth of lower-layer KPIs for one carrier — the
// finest time-scale record the paper's analysis operates on (τ = 0.5 ms).
type SlotKPI struct {
	// Slot is the absolute slot index since trace start.
	Slot int64
	// Time is the offset from trace start.
	Time time.Duration
	// Carrier identifies the component carrier (0 = PCell).
	Carrier uint8
	// RAT distinguishes NR from the LTE anchor.
	RAT RAT
	// Dir is the link direction of the allocation.
	Dir Direction
	// CQI is the most recent channel quality indicator fed back.
	CQI uint8
	// MCSTable is 1 (64QAM) or 2 (256QAM) per the DCI format in effect.
	MCSTable uint8
	// MCS is the modulation and coding scheme index signaled in DCI.
	MCS uint8
	// Rank is the number of MIMO layers used.
	Rank uint8
	// HARQRetx counts prior transmissions of this TB (0 = initial).
	HARQRetx uint8
	// ACK reports whether the transport block decoded successfully.
	ACK bool
	// Outage marks slots with no service (mmWave coverage holes).
	Outage bool
	// RBs is the number of resource blocks allocated.
	RBs uint16
	// ServingCell is the serving physical cell index.
	ServingCell uint16
	// REs is the number of resource elements allocated.
	REs uint32
	// TBSBits is the transport block size in bits.
	TBSBits uint32
	// DeliveredBits is the goodput contribution (0 on HARQ failure).
	DeliveredBits uint32
	// SINRdB, RSRPdBm, RSRQdB are the radio measurements.
	SINRdB, RSRPdBm, RSRQdB float32
	// PosX, PosY are the UE position in meters.
	PosX, PosY float32
}

// SlotKPISize is the fixed encoded size of a SlotKPI record.
const SlotKPISize = 64

const (
	flagACK    = 1 << 0
	flagOutage = 1 << 1
)

// AppendTo encodes the record and appends it to buf.
func (k *SlotKPI) AppendTo(buf []byte) []byte {
	var b [SlotKPISize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(k.Slot))
	binary.LittleEndian.PutUint64(b[8:], uint64(k.Time))
	b[16] = k.Carrier
	b[17] = uint8(k.RAT)
	b[18] = uint8(k.Dir)
	b[19] = k.CQI
	b[20] = k.MCSTable
	b[21] = k.MCS
	b[22] = k.Rank
	b[23] = k.HARQRetx
	var flags uint8
	if k.ACK {
		flags |= flagACK
	}
	if k.Outage {
		flags |= flagOutage
	}
	b[24] = flags
	binary.LittleEndian.PutUint16(b[26:], k.RBs)
	binary.LittleEndian.PutUint16(b[28:], k.ServingCell)
	binary.LittleEndian.PutUint32(b[32:], k.REs)
	binary.LittleEndian.PutUint32(b[36:], k.TBSBits)
	binary.LittleEndian.PutUint32(b[40:], k.DeliveredBits)
	binary.LittleEndian.PutUint32(b[44:], math.Float32bits(k.SINRdB))
	binary.LittleEndian.PutUint32(b[48:], math.Float32bits(k.RSRPdBm))
	binary.LittleEndian.PutUint32(b[52:], math.Float32bits(k.RSRQdB))
	binary.LittleEndian.PutUint32(b[56:], math.Float32bits(k.PosX))
	binary.LittleEndian.PutUint32(b[60:], math.Float32bits(k.PosY))
	return append(buf, b[:]...)
}

// DecodeSlotKPI decodes a record from b into k without allocating. It
// is strict: the payload must be exactly SlotKPISize bytes with zero
// padding and no unknown flag bits, so every accepted record re-encodes
// byte-identically via AppendTo — the property format conversions and
// the fuzz harness rely on.
func DecodeSlotKPI(b []byte, k *SlotKPI) error {
	if len(b) != SlotKPISize {
		return fmt.Errorf("xcal: slot KPI record is %d bytes, want %d", len(b), SlotKPISize)
	}
	if b[24]&^(flagACK|flagOutage) != 0 {
		return fmt.Errorf("xcal: slot KPI record has unknown flag bits %#x", b[24])
	}
	if b[25] != 0 || b[30] != 0 || b[31] != 0 {
		return fmt.Errorf("xcal: slot KPI record has nonzero padding")
	}
	k.Slot = int64(binary.LittleEndian.Uint64(b[0:]))
	k.Time = time.Duration(binary.LittleEndian.Uint64(b[8:]))
	k.Carrier = b[16]
	k.RAT = RAT(b[17])
	k.Dir = Direction(b[18])
	k.CQI = b[19]
	k.MCSTable = b[20]
	k.MCS = b[21]
	k.Rank = b[22]
	k.HARQRetx = b[23]
	k.ACK = b[24]&flagACK != 0
	k.Outage = b[24]&flagOutage != 0
	k.RBs = binary.LittleEndian.Uint16(b[26:])
	k.ServingCell = binary.LittleEndian.Uint16(b[28:])
	k.REs = binary.LittleEndian.Uint32(b[32:])
	k.TBSBits = binary.LittleEndian.Uint32(b[36:])
	k.DeliveredBits = binary.LittleEndian.Uint32(b[40:])
	k.SINRdB = math.Float32frombits(binary.LittleEndian.Uint32(b[44:]))
	k.RSRPdBm = math.Float32frombits(binary.LittleEndian.Uint32(b[48:]))
	k.RSRQdB = math.Float32frombits(binary.LittleEndian.Uint32(b[52:]))
	k.PosX = math.Float32frombits(binary.LittleEndian.Uint32(b[56:]))
	k.PosY = math.Float32frombits(binary.LittleEndian.Uint32(b[60:]))
	return nil
}
