package phy

import (
	"testing"
	"testing/quick"
)

func TestMCSTableSpotValues(t *testing.T) {
	// Spot checks against TS 38.214 Tables 5.1.3.1-1 and 5.1.3.1-2.
	cases := []struct {
		table MCSTable
		idx   uint8
		mod   Modulation
		rate  float64
	}{
		{MCSTable64QAM, 0, QPSK, 120},
		{MCSTable64QAM, 9, QPSK, 679},
		{MCSTable64QAM, 10, QAM16, 340},
		{MCSTable64QAM, 16, QAM16, 658},
		{MCSTable64QAM, 17, QAM64, 438},
		{MCSTable64QAM, 28, QAM64, 948},
		{MCSTable256QAM, 0, QPSK, 120},
		{MCSTable256QAM, 4, QPSK, 602},
		{MCSTable256QAM, 5, QAM16, 378},
		{MCSTable256QAM, 11, QAM64, 466},
		{MCSTable256QAM, 19, QAM64, 873},
		{MCSTable256QAM, 20, QAM256, 682.5},
		{MCSTable256QAM, 27, QAM256, 948},
	}
	for _, c := range cases {
		m, err := c.table.Lookup(c.idx)
		if err != nil {
			t.Fatalf("%v[%d]: %v", c.table, c.idx, err)
		}
		if m.Modulation != c.mod || m.CodeRate1024 != c.rate {
			t.Errorf("%v[%d] = (%v, %g), want (%v, %g)",
				c.table, c.idx, m.Modulation, m.CodeRate1024, c.mod, c.rate)
		}
	}
}

func TestMCSTableBounds(t *testing.T) {
	if got := MCSTable64QAM.MaxIndex(); got != 28 {
		t.Errorf("table1 max index = %d, want 28", got)
	}
	if got := MCSTable256QAM.MaxIndex(); got != 27 {
		t.Errorf("table2 max index = %d, want 27", got)
	}
	if _, err := MCSTable64QAM.Lookup(29); err == nil {
		t.Error("lookup past end of table 1 should fail")
	}
	if _, err := MCSTable(9).Lookup(0); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestMCSEfficiencyMonotone(t *testing.T) {
	// The real Table 5.1.3.1-1 has one non-monotonic step at the
	// 16QAM→64QAM boundary (index 16: 2.5703 vs index 17: 2.5664); we
	// reproduce the spec faithfully, so that single dip is expected.
	for _, table := range []MCSTable{MCSTable64QAM, MCSTable256QAM} {
		prev := -1.0
		for i := uint8(0); i <= table.MaxIndex(); i++ {
			m, err := table.Lookup(i)
			if err != nil {
				t.Fatal(err)
			}
			se := m.SpectralEfficiency()
			if table == MCSTable64QAM && i == 17 {
				if se >= prev {
					t.Errorf("table 1 index 17 should dip below 16 per spec")
				}
				prev = se
				continue
			}
			if se <= prev {
				t.Errorf("%v[%d] efficiency %g not > previous %g", table, i, se, prev)
			}
			prev = se
		}
	}
}

func TestMCSMaxModulation(t *testing.T) {
	if MCSTable64QAM.MaxModulation() != QAM64 {
		t.Error("table 1 max modulation should be 64QAM")
	}
	if MCSTable256QAM.MaxModulation() != QAM256 {
		t.Error("table 2 max modulation should be 256QAM")
	}
}

func TestHighestMCSForEfficiency(t *testing.T) {
	// Max table-2 efficiency is 8×948/1024 ≈ 7.4; asking for more caps at 27.
	if got := MCSTable256QAM.HighestMCSForEfficiency(100); got != 27 {
		t.Errorf("very high efficiency → MCS %d, want 27", got)
	}
	// Below the lowest row (2×120/1024 ≈ 0.234) we floor to 0.
	if got := MCSTable256QAM.HighestMCSForEfficiency(0.01); got != 0 {
		t.Errorf("tiny efficiency → MCS %d, want 0", got)
	}
}

// TestHighestMCSForEfficiencyPrefixRule pins the in-reach-prefix rule on
// Table 1's one non-monotone step: MCS 17 (2.5664 b/RE) is within 2.568
// but MCS 16 (2.5703) is not, and the scan stops at MCS 16.
func TestHighestMCSForEfficiencyPrefixRule(t *testing.T) {
	m16, _ := MCSTable64QAM.Lookup(16)
	m17, _ := MCSTable64QAM.Lookup(17)
	if !(m17.SpectralEfficiency() <= 2.568 && 2.568 < m16.SpectralEfficiency()) {
		t.Fatalf("MCS 16/17 efficiencies %v/%v no longer straddle 2.568", m16.SpectralEfficiency(), m17.SpectralEfficiency())
	}
	if got := MCSTable64QAM.HighestMCSForEfficiency(2.568); got != 15 {
		t.Errorf("HighestMCSForEfficiency(2.568) = %d, want 15 (MCS 16 is out of reach)", got)
	}
	if got := MCSTable64QAM.HighestMCSForEfficiency(m16.SpectralEfficiency()); got != 17 {
		t.Errorf("HighestMCSForEfficiency(MCS 16's efficiency) = %d, want 17", got)
	}
}

func TestHighestMCSForEfficiencyProperty(t *testing.T) {
	// Property: the chosen MCS never exceeds the requested efficiency
	// (unless it is index 0), and the next index always would.
	f := func(se float64, useTable2 bool) bool {
		if se < 0 || se > 20 {
			se = 3.3
		}
		table := MCSTable64QAM
		if useTable2 {
			table = MCSTable256QAM
		}
		idx := table.HighestMCSForEfficiency(se)
		m, err := table.Lookup(idx)
		if err != nil {
			return false
		}
		if idx > 0 && m.SpectralEfficiency() > se {
			return false
		}
		if idx < table.MaxIndex() {
			next, err := table.Lookup(idx + 1)
			if err != nil {
				return false
			}
			if next.SpectralEfficiency() <= se {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRequiredSINRMonotone(t *testing.T) {
	for _, table := range []MCSTable{MCSTable64QAM, MCSTable256QAM} {
		prev := -100.0
		for i := uint8(0); i <= table.MaxIndex(); i++ {
			if table == MCSTable64QAM && i == 17 {
				// Non-monotonic spec row; see TestMCSEfficiencyMonotone.
				continue
			}
			m, _ := table.Lookup(i)
			req := m.RequiredSINRdB()
			if req <= prev {
				t.Errorf("%v[%d] required SINR %g not > previous %g", table, i, req, prev)
			}
			prev = req
		}
	}
}

func TestModulationString(t *testing.T) {
	cases := map[Modulation]string{
		QPSK: "QPSK", QAM16: "16QAM", QAM64: "64QAM", QAM256: "256QAM",
		Modulation(3): "Modulation(3)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
	if Modulation(5).Valid() {
		t.Error("Modulation(5) should be invalid")
	}
}
