package phy

// Key layout for the TBSCache table: symbols (4 bits) · PRBs (10 bits) ·
// MCS index (5 bits) · layers (3 bits). Tuples outside these ranges take
// the uncached path. No packable tuple produces key 0 (symbols ≥ 1 sets a
// high bit), so 0 marks an empty table slot.
const (
	tbsKeyLayerBits   = 3
	tbsKeyMCSBits     = 5
	tbsKeyPRBBits     = 10
	tbsKeyMCSShift    = tbsKeyLayerBits
	tbsKeyPRBShift    = tbsKeyMCSShift + tbsKeyMCSBits
	tbsKeySymbolShift = tbsKeyPRBShift + tbsKeyPRBBits
)

// tbsEntry is one open-addressing slot: the packed tuple key and its TBS.
type tbsEntry struct {
	key uint32
	tbs int32
}

// TBSCache memoizes TBS over its small discrete input space for one
// carrier's fixed MCS table and DMRS/overhead configuration. The
// scheduler calls TBS once per scheduled transport block, but its inputs
// — (symbols, PRBs, MCS, layers) — take only a few thousand distinct
// values per session, so the TS 38.214 ladder (log2/pow plus a table
// scan) collapses to one probe of a small open-addressed table after
// warm-up. Open addressing with a multiplicative hash beats both a
// builtin map (no hash-function call, no bucket indirection) and a dense
// per-tuple slab (a campaign constructs hundreds of carriers, and
// zeroing megabytes of mostly-unused slab per construction costs more
// than it saves). Misses are computed by the exact same TBS function, so
// cached results are bit-identical by construction.
//
// A TBSCache belongs to one carrier; it is not safe for concurrent use.
type TBSCache struct {
	table    MCSTable
	dmrs     int
	overhead int

	entries []tbsEntry // power-of-two open-addressing table
	mask    uint32     // len(entries) - 1
	used    int        // occupied slots; grow at 3/4 load
}

// tbsCacheInitSize is the initial table size (a power of two). 2048
// slots × 8 bytes keeps construction cheap; steady state for one carrier
// rarely needs more than one doubling.
const tbsCacheInitSize = 2048

// NewTBSCache builds a cache for one carrier's MCS table and configured
// per-PRB DMRS/xOverhead REs.
func NewTBSCache(table MCSTable, dmrsPerPRB, overheadPerPRB int) *TBSCache {
	return &TBSCache{
		table:    table,
		dmrs:     dmrsPerPRB,
		overhead: overheadPerPRB,
		entries:  make([]tbsEntry, tbsCacheInitSize),
		mask:     tbsCacheInitSize - 1,
	}
}

// params reconstructs the full TBSParams for a tuple, applying the same
// DMRS clamp the scheduler applies (DMRS REs cannot exceed the REs of the
// allocated symbols).
func (c *TBSCache) params(symbols, prbs int, row MCS, layers int) TBSParams {
	dmrs := c.dmrs
	if maxDMRS := SubcarriersPerRB * symbols; dmrs > maxDMRS {
		dmrs = maxDMRS
	}
	return TBSParams{
		Symbols:        symbols,
		DMRSPerPRB:     dmrs,
		OverheadPerPRB: c.overhead,
		PRBs:           prbs,
		MCS:            row,
		Layers:         layers,
	}
}

// TBS returns the transport block size for the tuple, memoized. It is
// equivalent to calling the package-level TBS with the carrier's DMRS
// clamp applied. The MCS row is looked up only on a miss: a key is
// inserted only after its row was found, and errors are never cached.
func (c *TBSCache) TBS(symbols, prbs int, mcs uint8, layers int) (int, error) {
	if symbols < 1 || symbols > SymbolsPerSlot ||
		prbs < 1 || prbs >= 1<<tbsKeyPRBBits ||
		mcs >= 1<<tbsKeyMCSBits ||
		layers < 1 || layers > 4 {
		// Not packable into a key; let Lookup and TBS validate and
		// compute directly.
		return c.compute(symbols, prbs, mcs, layers)
	}
	key := uint32(symbols)<<tbsKeySymbolShift |
		uint32(prbs)<<tbsKeyPRBShift |
		uint32(mcs)<<tbsKeyMCSShift |
		uint32(layers)
	i := (key * 2654435761) & c.mask // Fibonacci hashing, linear probing
	for {
		e := &c.entries[i]
		if e.key == key {
			return int(e.tbs), nil
		}
		if e.key == 0 {
			break
		}
		i = (i + 1) & c.mask
	}
	tbs, err := c.compute(symbols, prbs, mcs, layers)
	if err != nil {
		return 0, err
	}
	c.insert(key, int32(tbs))
	return tbs, nil
}

// compute is the uncached TBS of a tuple.
func (c *TBSCache) compute(symbols, prbs int, mcs uint8, layers int) (int, error) {
	row, err := c.table.Lookup(mcs)
	if err != nil {
		return 0, err
	}
	return TBS(c.params(symbols, prbs, row, layers))
}

// insert stores a computed entry, doubling the table when it passes 3/4
// load so probe chains stay short.
func (c *TBSCache) insert(key uint32, tbs int32) {
	if c.used+1 > len(c.entries)*3/4 {
		old := c.entries
		c.entries = make([]tbsEntry, 2*len(old))
		c.mask = uint32(len(c.entries) - 1)
		for _, e := range old {
			if e.key != 0 {
				c.place(e.key, e.tbs)
			}
		}
	}
	c.place(key, tbs)
	c.used++
}

// place writes an entry into the first free probe slot (the key is known
// to be absent).
func (c *TBSCache) place(key uint32, tbs int32) {
	i := (key * 2654435761) & c.mask
	for c.entries[i].key != 0 {
		i = (i + 1) & c.mask
	}
	c.entries[i] = tbsEntry{key: key, tbs: tbs}
}
