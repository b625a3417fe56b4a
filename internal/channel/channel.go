package channel

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/phy"
)

// Config parameterizes a per-carrier radio channel process.
type Config struct {
	// CarrierFreqMHz is the carrier center frequency.
	CarrierFreqMHz float64
	// SlotDuration is the sampling period (one NR slot).
	SlotDuration time.Duration
	// Seed makes the process reproducible.
	Seed int64
	// Route is the UE trajectory.
	Route Route
	// Deployment is the serving gNB layout.
	Deployment Deployment
	// NoisePerREdBm is thermal noise + noise figure per resource element.
	// Zero selects the default −122 dBm (30 kHz RE, 7 dB noise figure).
	NoisePerREdBm float64
	// OtherCellInterferenceDBm is the per-RE interference floor from
	// cells outside the modeled deployment. Zero selects −110 dBm.
	OtherCellInterferenceDBm float64
	// NeighborLoad scales interference from the modeled neighbor sites:
	// the fraction of time/power they actually transmit toward this UE
	// (activity factor × beam separation). Zero selects 0.1; to model
	// fully idle neighbors set DisableNeighborLoad instead.
	NeighborLoad float64
	// DisableNeighborLoad makes a zero NeighborLoad expressible: when
	// set, the modeled neighbor sites contribute no interference at all
	// and NeighborLoad is ignored (the zero value of NeighborLoad alone
	// selects the 0.1 default, so "no neighbor activity" needs this
	// explicit flag).
	DisableNeighborLoad bool
	// ShadowSigmaDB is the lognormal shadowing standard deviation
	// (default 4 dB).
	ShadowSigmaDB float64
	// ShadowCorrMeters is the shadowing decorrelation distance
	// (default 50 m).
	ShadowCorrMeters float64
	// ShadowCorrSeconds is the temporal decorrelation for a stationary
	// UE — the slow environment churn the paper observes at the 0.2–0.5 s
	// scale (default 0.4 s).
	ShadowCorrSeconds float64
	// FastSigmaDB is the fast-fading standard deviation (default 2 dB;
	// mmWave uses larger values).
	FastSigmaDB float64
	// FastCorrSeconds is the fast-fading coherence time for a stationary
	// UE (default 40 ms); mobility shortens it via Doppler.
	FastCorrSeconds float64
	// SlowSigmaDB adds a slow environment/load drift: neighbor-cell load,
	// passing obstructions and scheduler pressure move the operating
	// point over tens of seconds. This is what produces the multi-second
	// throughput sags visible in the paper's Figs. 13 and 16 (and hence
	// video stalls). Zero disables it.
	SlowSigmaDB float64
	// SlowCorrSeconds is the drift's correlation time (default 10 s).
	SlowCorrSeconds float64
	// SINRBiasDB shifts the whole SINR process; operator profiles use it
	// to encode deployment quality beyond site geometry.
	SINRBiasDB float64
	// Episodes, when non-nil, adds occasional multi-second degradation
	// episodes (congestion/interference sags).
	Episodes *EpisodeConfig
	// Blockage, when non-nil, adds the mmWave LOS/NLOS/outage process.
	Blockage *BlockageConfig
	// Fault, when non-nil, injects deterministic SINR blackout windows
	// (deep coverage holes). The injector draws from its own seeded RNG,
	// so a nil Fault leaves every other random sequence untouched.
	Fault *fault.Blackout
}

func (c Config) withDefaults() Config {
	if c.NoisePerREdBm == 0 {
		c.NoisePerREdBm = -122
	}
	if c.OtherCellInterferenceDBm == 0 {
		c.OtherCellInterferenceDBm = -110
	}
	if c.DisableNeighborLoad {
		c.NeighborLoad = 0
	} else if c.NeighborLoad == 0 {
		c.NeighborLoad = 0.1
	}
	if c.ShadowSigmaDB == 0 {
		c.ShadowSigmaDB = 4
	}
	if c.ShadowCorrMeters == 0 {
		c.ShadowCorrMeters = 50
	}
	if c.ShadowCorrSeconds == 0 {
		c.ShadowCorrSeconds = 0.4
	}
	if c.FastSigmaDB == 0 {
		c.FastSigmaDB = 2
	}
	if c.FastCorrSeconds == 0 {
		c.FastCorrSeconds = 0.040
	}
	if c.SlowCorrSeconds == 0 {
		c.SlowCorrSeconds = 10
	}
	if c.SlotDuration == 0 {
		c.SlotDuration = 500 * time.Microsecond
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CarrierFreqMHz <= 0 {
		return fmt.Errorf("channel: carrier frequency %g MHz invalid", c.CarrierFreqMHz)
	}
	if c.NeighborLoad < 0 {
		return fmt.Errorf("channel: neighbor load %g negative (use DisableNeighborLoad for zero)", c.NeighborLoad)
	}
	if err := c.Route.Validate(); err != nil {
		return err
	}
	if err := c.Deployment.Validate(); err != nil {
		return err
	}
	if c.Blockage != nil {
		if err := c.Blockage.Validate(); err != nil {
			return err
		}
	}
	if c.Episodes != nil {
		if err := c.Episodes.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Sample is one slot's radio state.
type Sample struct {
	// Pos is the UE position.
	Pos Point
	// ServingCell is the index of the serving site in the deployment.
	ServingCell int
	// RSRPdBm is the reference-signal received power (includes shadowing,
	// excludes fast fading, as a filtered RSRP measurement would).
	RSRPdBm float64
	// rsrqSINRdB is the wideband signal-to-rest ratio the RSRQ
	// measurement sees (−Inf in outage); RSRQdB derives RSRQ from it.
	rsrqSINRdB float64
	// SINRdB is the instantaneous post-fading SINR.
	SINRdB float64
	// LOS reports the blockage state (always true without a blockage
	// process).
	LOS bool
	// Outage reports total service loss (mmWave coverage holes).
	Outage bool
}

// RSRQdB returns the reference-signal received quality. It is derived on
// read: the slot path stores only its input, so callers that never read
// RSRQ never pay for the conversion.
func (s *Sample) RSRQdB() float64 { return RSRQFromSINR(s.rsrqSINRdB) }

// fadingKernel holds the per-slot AR(1) coefficients of the three fading
// processes. dt and all correlation times are fixed per session and the
// UE speed is a route constant, so the (ρ, √(1−ρ²)) pairs are computed
// once at construction — with exactly the expressions Step used to
// evaluate per slot, so the precomputed path is bit-identical — and only
// recomputed if the Doppler input (the speed) ever changes.
type fadingKernel struct {
	speedBits uint64 // math.Float64bits of the speed this kernel is valid for
	shadowRho float64
	shadowSq  float64 // √(1−ρ²)
	fastRho   float64
	fastSq    float64
	slowRho   float64
	slowSq    float64
}

func computeKernel(cfg Config, dt, speed float64) fadingKernel {
	k := fadingKernel{speedBits: math.Float64bits(speed)}

	// Ornstein–Uhlenbeck shadowing: decorrelates with both distance
	// traveled and time.
	shadowRate := speed/cfg.ShadowCorrMeters + 1/cfg.ShadowCorrSeconds
	k.shadowRho = math.Exp(-dt * shadowRate)
	k.shadowSq = math.Sqrt(1 - k.shadowRho*k.shadowRho)

	// Fast fading: coherence time shrinks with Doppler (∝ speed·fc).
	coh := cfg.FastCorrSeconds
	if speed > 0 {
		doppler := speed * cfg.CarrierFreqMHz * 1e6 / 3e8
		if tc := 0.423 / doppler; tc < coh {
			coh = tc
		}
	}
	k.fastRho = math.Exp(-dt / coh)
	k.fastSq = math.Sqrt(1 - k.fastRho*k.fastRho)

	// Slow environment/load drift.
	if cfg.SlowSigmaDB > 0 {
		k.slowRho = math.Exp(-dt / cfg.SlowCorrSeconds)
		k.slowSq = math.Sqrt(1 - k.slowRho*k.slowRho)
	}
	return k
}

// rsrqLoad is the assumed neighbor activity inside the RSRQ measurement
// bandwidth: reference-signal REs of all neighbors are always on, and the
// measurement integrates roughly half-loaded neighbors.
const rsrqLoad = 0.5

// Channel is the per-slot radio process. It is not safe for concurrent use.
type Channel struct {
	cfg      Config
	rng      *rand.Rand
	slot     int64
	shadowDB float64
	fastDB   float64
	slowDB   float64
	blk      *blockageState
	epi      *episodeState
	blackout *fault.BlackoutState

	// Precomputed constants of the slot path (see fadingKernel).
	dt      float64 // SlotDuration in seconds
	k       fadingKernel
	noiseMW float64 // 10^(NoisePerREdBm/10)
	floorMW float64 // 10^(OtherCellInterferenceDBm/10)

	// Route geometry: segment lengths are fixed, and for a stationary UE
	// the whole site scan (serving cell, RSRP, interference and the two
	// noise+interference log terms) is a session constant.
	segs       []float64 // per-segment lengths of the route polyline
	segTotal   float64
	staticGeo  bool
	geoCell    int
	geoRSRP    float64
	geoInterf  float64
	geoDataDBm float64 // 10·log10(noiseMW + data interference)
	geoRSRQDBm float64 // 10·log10(noiseMW + RSRQ interference)
	powers     []float64

	// scan memoizes a moving UE's last site scan (nil when staticGeo).
	// ShareSiteScans points same-geometry channels of one link at a
	// single memo, so co-sited carriers scan each position once.
	scan *siteScan
}

// New creates a channel process.
func New(cfg Config) (*Channel, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ch := &Channel{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	// Start the correlated processes at a random draw from their
	// stationary distributions.
	ch.shadowDB = ch.rng.NormFloat64() * cfg.ShadowSigmaDB
	ch.fastDB = ch.rng.NormFloat64() * cfg.FastSigmaDB
	// The slow drift starts at its neutral point: sessions begin in a
	// typical state and drift from there.
	if cfg.Blockage != nil {
		ch.blk = newBlockageState(*cfg.Blockage, ch.rng)
	}
	if cfg.Episodes != nil {
		ch.epi = newEpisodeState(*cfg.Episodes, ch.rng)
	}
	ch.blackout = fault.NewBlackoutState(cfg.Fault)

	ch.dt = cfg.SlotDuration.Seconds()
	ch.k = computeKernel(cfg, ch.dt, cfg.Route.SpeedMPS)
	ch.noiseMW = phy.DBToLinear(cfg.NoisePerREdBm)
	ch.floorMW = phy.DBToLinear(cfg.OtherCellInterferenceDBm)
	if n := len(cfg.Route.Waypoints); n > 1 {
		ch.segs = make([]float64, n-1)
		for i := 1; i < n; i++ {
			ch.segs[i-1] = cfg.Route.Waypoints[i-1].Distance(cfg.Route.Waypoints[i])
			ch.segTotal += ch.segs[i-1]
		}
	}
	ch.powers = make([]float64, len(cfg.Deployment.Sites))
	ch.staticGeo = cfg.Route.SpeedMPS == 0 || len(cfg.Route.Waypoints) == 1
	if ch.staticGeo {
		pos := cfg.Route.Waypoints[0]
		ch.geoCell, ch.geoRSRP, ch.geoInterf =
			cfg.Deployment.strongestSite(pos, cfg.CarrierFreqMHz, ch.powers)
		interfData := ch.geoInterf*cfg.NeighborLoad + ch.floorMW
		ch.geoDataDBm = 10 * math.Log10(ch.noiseMW+interfData)
		interfRSRQ := ch.geoInterf*rsrqLoad + ch.floorMW
		ch.geoRSRQDBm = 10 * math.Log10(ch.noiseMW+interfRSRQ)
	} else {
		ch.scan = new(siteScan)
	}
	return ch, nil
}

// siteScan is the memo of one site scan: the strongestSite result at the
// position whose coordinates' bit patterns are x, y.
type siteScan struct {
	valid    bool
	x, y     uint64
	cell     int
	rsrp     float64
	interfMW float64
}

// ShareSiteScans lets moving channels with bit-equal geometry — sites,
// Tx power and carrier frequency — share one site-scan memo. The scan is a
// pure function of (position, deployment, frequency), so a channel that
// reaches a position another has just scanned reuses that result, and one
// whose position differs (another numerology, another route) simply
// rescans: samples are bit-identical either way. Aggregated co-sited
// carriers on one route thus scan each position once instead of once per
// carrier. Stationary channels already hold their scan as a constant and
// are left alone. Draws no randomness.
func ShareSiteScans(chs ...*Channel) {
	for i, c := range chs {
		if c.scan == nil {
			continue
		}
		for _, prev := range chs[:i] {
			if prev.scan != nil && sameGeometry(prev.cfg, c.cfg) {
				c.scan = prev.scan
				break
			}
		}
	}
}

// sameGeometry reports whether two configs yield the same site scan at
// every position.
func sameGeometry(a, b Config) bool {
	if math.Float64bits(a.CarrierFreqMHz) != math.Float64bits(b.CarrierFreqMHz) ||
		math.Float64bits(a.Deployment.TxPowerDBmPerRE) != math.Float64bits(b.Deployment.TxPowerDBmPerRE) ||
		len(a.Deployment.Sites) != len(b.Deployment.Sites) {
		return false
	}
	for i, p := range a.Deployment.Sites {
		q := b.Deployment.Sites[i]
		if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			return false
		}
	}
	return true
}

// scanAt is strongestSite at p through the channel's memo.
//
//detlint:zeroalloc
func (c *Channel) scanAt(p Point) (cell int, rsrpDBm, interfMW float64) {
	m := c.scan
	x, y := math.Float64bits(p.X), math.Float64bits(p.Y)
	if !m.valid || m.x != x || m.y != y {
		m.cell, m.rsrp, m.interfMW = c.cfg.Deployment.strongestSite(p, c.cfg.CarrierFreqMHz, c.powers)
		m.valid, m.x, m.y = true, x, y
	}
	return m.cell, m.rsrp, m.interfMW
}

// Slot returns the index of the next sample to be produced.
func (c *Channel) Slot() int64 { return c.slot }

// SetNeighborLoad retunes the neighbor-cell activity factor mid-session.
// The multi-UE contention cell calls this to replace the fixed
// statistical load with its own measured RB utilization (neighbor sites
// are assumed to carry a similar load), making interference — and
// therefore SINR and throughput — load-dependent. Negative loads and
// channels built with DisableNeighborLoad are ignored; RSRQ keeps its
// own fixed measurement load (see rsrqLoad). Draws no randomness and
// allocates nothing, so it is safe on the zero-alloc slot path and
// cannot perturb the fading processes.
func (c *Channel) SetNeighborLoad(load float64) {
	if c.cfg.DisableNeighborLoad || load < 0 {
		return
	}
	if math.Float64bits(load) == math.Float64bits(c.cfg.NeighborLoad) {
		return
	}
	c.cfg.NeighborLoad = load
	if c.staticGeo {
		interfData := c.geoInterf*load + c.floorMW
		c.geoDataDBm = 10 * math.Log10(c.noiseMW+interfData)
	}
}

// NeighborLoad reports the activity factor currently in effect.
func (c *Channel) NeighborLoad() float64 { return c.cfg.NeighborLoad }

// SetRSRQNeeded does nothing: Sample.RSRQdB derives RSRQ on read. It is
// kept only because the bench module's ledger (bench/midbench) calls it.
func (c *Channel) SetRSRQNeeded(bool) {}

// position returns the UE position after traveling for tSec seconds. The
// route is walked back and forth (ping-pong) so long experiments stay on
// it; segment lengths are precomputed at construction.
func (c *Channel) position(tSec float64) Point {
	r := c.cfg.Route
	if r.SpeedMPS == 0 || len(r.Waypoints) == 1 {
		return r.Waypoints[0]
	}
	total := c.segTotal
	if total == 0 {
		return r.Waypoints[0]
	}
	d := math.Mod(r.SpeedMPS*tSec, 2*total)
	if d > total {
		d = 2*total - d // walking back
	}
	for i := 1; i < len(r.Waypoints); i++ {
		seg := c.segs[i-1]
		if d <= seg && seg > 0 {
			f := d / seg
			a, b := r.Waypoints[i-1], r.Waypoints[i]
			return Point{a.X + f*(b.X-a.X), a.Y + f*(b.Y-a.Y)}
		}
		d -= seg
	}
	return r.Waypoints[len(r.Waypoints)-1]
}

// Step advances one slot and returns the new radio sample.
//
//detlint:zeroalloc
func (c *Channel) Step() Sample {
	var s Sample
	c.StepInto(&s)
	return s
}

// StepInto is Step writing the sample in place — the carrier slot loop
// threads one Sample through the whole chain instead of copying the
// struct at every return.
//
//detlint:zeroalloc
func (c *Channel) StepInto(out *Sample) {
	dt := c.dt
	tSec := float64(c.slot) * dt
	pos := c.position(tSec)
	speed := c.cfg.Route.SpeedMPS

	// AR(1) fading updates with the precomputed (ρ, √(1−ρ²)) kernel; the
	// multiplication order matches the inline expressions they replace,
	// so every sample is bit-identical to the per-slot recomputation.
	if math.Float64bits(speed) != c.k.speedBits {
		c.k = computeKernel(c.cfg, dt, speed)
	}
	c.shadowDB = c.k.shadowRho*c.shadowDB + c.k.shadowSq*c.rng.NormFloat64()*c.cfg.ShadowSigmaDB
	c.fastDB = c.k.fastRho*c.fastDB + c.k.fastSq*c.rng.NormFloat64()*c.cfg.FastSigmaDB
	if c.cfg.SlowSigmaDB > 0 {
		c.slowDB = c.k.slowRho*c.slowDB + c.k.slowSq*c.rng.NormFloat64()*c.cfg.SlowSigmaDB
	}

	var cell int
	//detlint:unit dBm
	var rsrp, interfMW float64
	if c.staticGeo {
		cell, rsrp, interfMW = c.geoCell, c.geoRSRP, c.geoInterf
	} else {
		cell, rsrp, interfMW = c.scanAt(pos)
	}
	rsrp += c.shadowDB

	los, outage := true, false
	blockLossDB := 0.0
	if c.blk != nil {
		los, outage, blockLossDB = c.blk.step(dt, speed)
	}
	if c.epi != nil {
		blockLossDB += c.epi.step(dt)
	}
	if c.blackout != nil {
		if loss := c.blackout.Step(); loss > 0 {
			blockLossDB += loss
			if obs.Enabled() {
				obs.Sim.FaultBlackoutSlots.Inc()
			}
		}
	}

	var noiseDataDBm float64
	if c.staticGeo {
		noiseDataDBm = c.geoDataDBm
	} else {
		interfData := interfMW*c.cfg.NeighborLoad + c.floorMW
		noiseDataDBm = 10 * math.Log10(c.noiseMW+interfData)
	}
	sinrDB := rsrp - blockLossDB + c.fastDB + c.slowDB + c.cfg.SINRBiasDB - noiseDataDBm
	// RSRQ is measured against a busier RSSI than the data SINR sees
	// (see rsrqLoad); Sample.RSRQdB converts this on read.
	var noiseRSRQDBm float64
	if c.staticGeo {
		noiseRSRQDBm = c.geoRSRQDBm
	} else {
		interfRSRQ := interfMW*rsrqLoad + c.floorMW
		noiseRSRQDBm = 10 * math.Log10(c.noiseMW+interfRSRQ)
	}
	sinrRSRQ := rsrp - blockLossDB + c.slowDB + c.cfg.SINRBiasDB - noiseRSRQDBm
	if outage {
		sinrDB = math.Inf(-1)
		sinrRSRQ = math.Inf(-1)
	}

	c.slot++
	// Observability only — nothing below feeds back into channel state,
	// so instrumented runs stay byte-identical to uninstrumented ones.
	if obs.Enabled() {
		obs.Sim.SlotsStepped.Inc()
		if outage {
			obs.Sim.Outages.Inc()
		} else {
			obs.Sim.SINRdB.Observe(sinrDB)
		}
	}
	*out = Sample{
		Pos:         pos,
		ServingCell: cell,
		RSRPdBm:     rsrp - blockLossDB,
		rsrqSINRdB:  sinrRSRQ,
		SINRdB:      sinrDB,
		LOS:         los,
		Outage:      outage,
	}
}

// RSRQFromSINR converts a wideband signal-to-rest ratio into RSRQ:
// RSRQ = −10·log10(12) − 10·log10(1 + 1/sinr), clamped to the reportable
// [−20, −3] dB range. A fully dominant serving cell saturates near
// −10.8 dB; the paper's "good coverage" scouting threshold (RSRQ ≥ −12 dB)
// corresponds to the rest of the RSSI staying ≳ 5 dB below the signal.
func RSRQFromSINR(sinrDB float64) float64 {
	if math.IsInf(sinrDB, -1) {
		return -20
	}
	sinr := phy.DBToLinear(sinrDB)
	rsrq := -10.79 - 10*math.Log10(1+1/sinr)
	return math.Max(-20, math.Min(-3, rsrq))
}
