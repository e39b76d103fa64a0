package gpu

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/llc"
)

func TestSectorCount(t *testing.T) {
	cfg := ScaledConfig()
	if cfg.SectorCount() != 1 {
		t.Fatalf("conventional SectorCount = %d", cfg.SectorCount())
	}
	cfg.Sectored = true
	if cfg.SectorCount() != 4 {
		t.Fatalf("sectored SectorCount = %d", cfg.SectorCount())
	}
}

func TestMachineShape(t *testing.T) {
	cfg := ScaledConfig()
	m := cfg.Machine()
	if m.Chips != cfg.Chips || m.SMsPerChip != cfg.SMsPerChip ||
		m.WarpsPerSM != cfg.WarpsPerSM || m.Scale != cfg.WorkloadScale {
		t.Fatalf("machine %+v does not mirror config", m)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithOrgIsCopy(t *testing.T) {
	base := ScaledConfig()
	derived := base.WithOrg(llc.SAC)
	if base.Org == llc.SAC {
		t.Fatal("WithOrg mutated the receiver")
	}
	if derived.Org != llc.SAC {
		t.Fatal("WithOrg did not set the org")
	}
}

func TestClustersPerChip(t *testing.T) {
	cfg := PaperConfig()
	if got := cfg.ClustersPerChip(); got != 32 {
		t.Fatalf("paper clusters = %d, want 32", got)
	}
	if got := ScaledConfig().ClustersPerChip(); got != 8 {
		t.Fatalf("scaled clusters = %d, want 8", got)
	}
}

func TestValidateCatchesCacheGeometry(t *testing.T) {
	cfg := ScaledConfig()
	cfg.LLCBytesPerChip = 100 * 128 // 100 lines over 4 slices: 25 per slice, not /16 ways
	if err := cfg.Validate(); err == nil {
		t.Fatal("odd LLC geometry accepted")
	}
	cfg = ScaledConfig()
	cfg.L1BytesPerSM = 3 * 128
	if err := cfg.Validate(); err == nil {
		t.Fatal("odd L1 geometry accepted")
	}
	cfg = ScaledConfig()
	cfg.WorkloadScale = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero workload scale accepted")
	}
	cfg = ScaledConfig()
	cfg.MaxCycles = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero MaxCycles accepted")
	}
}

// TestValidateRejectsNonFinite: NaN passes every "<= 0" check, +Inf every
// positive one, and neither has a JSON encoding, so no store key. Each of the
// four bandwidths and SACOpts.Theta must be finite.
func TestValidateRejectsNonFinite(t *testing.T) {
	for name, field := range map[string]func(*Config) *float64{
		"ClusterBW":  func(c *Config) *float64 { return &c.ClusterBW },
		"SliceBW":    func(c *Config) *float64 { return &c.SliceBW },
		"RingLinkBW": func(c *Config) *float64 { return &c.RingLinkBW },
		"ChannelBW":  func(c *Config) *float64 { return &c.ChannelBW },
		"Theta":      func(c *Config) *float64 { return &c.SACOpts.Theta },
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := ScaledConfig()
			*field(&cfg) = v
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s = %v accepted", name, v)
			}
		}
	}
}

// TestValidateWaysRange pins that an associativity the set-associative array
// cannot be built with — these values reach Validate from a POST
// /v1/jobs:batch body — is an error, never a panic in Validate or in the constructors
// behind it.
func TestValidateWaysRange(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Config)
		ok   bool
	}{
		{"L1Ways 0", func(c *Config) { c.L1Ways = 0 }, false},
		{"L1Ways -8", func(c *Config) { c.L1Ways = -8 }, false},
		{"L1Ways 65", func(c *Config) { c.L1Ways = 65 }, false},
		{"L1Ways 1", func(c *Config) { c.L1Ways = 1 }, true},
		{"L1Ways 64", func(c *Config) { c.L1Ways = 64 }, true},
		{"LLCWays 1", func(c *Config) { c.LLCWays = 1 }, false},
		{"LLCWays 65", func(c *Config) { c.LLCWays = 65 }, false},
		{"LLCWays 128", func(c *Config) { c.LLCWays = 128 }, false},
		{"LLCWays 2", func(c *Config) { c.LLCWays = 2 }, true},
		{"LLCWays 64", func(c *Config) { c.LLCWays = 64 }, true},
	}
	for _, tc := range cases {
		cfg := ScaledConfig()
		tc.set(&cfg)
		err := cfg.Validate() // a panic here fails the test
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil {
			continue
		}
		if _, err := New(cfg, tinyWorkload()); err != nil { // an accepted geometry must also build
			t.Errorf("%s: New = %v", tc.name, err)
		}
	}
}

// TestValidateStructuralLimits pins the upper bounds the fixed structures of
// the cycle loop need — the MSHR table is sized eagerly from MSHRPerSlice, a
// chip tracks its busy slices in one 64-bit word and its live SMs in a fixed
// set of them, an SM its runnable warps in one word — as Validate errors.
// Every one of these fields reaches Validate from a POST /v1/jobs:batch
// body, and SMsPerChip and WarpsPerSM size make calls behind it; an accepted
// value must also build.
func TestValidateStructuralLimits(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Config)
		ok   bool
	}{
		{"MSHRPerSlice 0", func(c *Config) { c.MSHRPerSlice = 0 }, false},
		{"MSHRPerSlice 1", func(c *Config) { c.MSHRPerSlice = 1 }, true},
		{"MSHRPerSlice at the limit", func(c *Config) { c.MSHRPerSlice = cache.MaxMSHREntries }, true},
		{"MSHRPerSlice one over", func(c *Config) { c.MSHRPerSlice = cache.MaxMSHREntries + 1 }, false},
		{"MSHRPerSlice 1<<40", func(c *Config) { c.MSHRPerSlice = 1 << 40 }, false},
		// 64 slices of 2 sets x 16 ways; one channel per slice keeps the pairing valid.
		{"SlicesPerChip at the limit", func(c *Config) { c.SlicesPerChip, c.ChannelsPerChip = MaxSlicesPerChip, 2 }, true},
		{"SlicesPerChip one over", func(c *Config) {
			c.SlicesPerChip, c.ChannelsPerChip = MaxSlicesPerChip+1, 1
			c.LLCBytesPerChip = (MaxSlicesPerChip + 1) * 16 * 128
		}, false},
		{"SMsPerChip 0", func(c *Config) { c.SMsPerChip = 0 }, false},
		{"SMsPerChip at the limit", func(c *Config) { c.SMsPerChip = MaxSMsPerChip }, true},
		{"SMsPerChip one over", func(c *Config) { c.SMsPerChip = MaxSMsPerChip + 1 }, false},
		{"SMsPerChip one cluster over", func(c *Config) { c.SMsPerChip = MaxSMsPerChip + c.SMsPerCluster }, false},
		{"SMsPerChip 1<<40", func(c *Config) { c.SMsPerChip = 1 << 40 }, false},
		{"WarpsPerSM 0", func(c *Config) { c.WarpsPerSM = 0 }, false},
		{"WarpsPerSM at the limit", func(c *Config) { c.WarpsPerSM = MaxWarpsPerSM }, true},
		{"WarpsPerSM one over", func(c *Config) { c.WarpsPerSM = MaxWarpsPerSM + 1 }, false},
		{"WarpsPerSM 1<<40", func(c *Config) { c.WarpsPerSM = 1 << 40 }, false},
		{"PaperConfig", func(c *Config) { *c = PaperConfig() }, true},
		{"ScaledConfig", func(c *Config) {}, true},
	}
	for _, tc := range cases {
		cfg := ScaledConfig()
		tc.set(&cfg)
		err := cfg.Validate() // a panic here fails the test
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil {
			continue
		}
		if _, err := New(cfg, tinyWorkload()); err != nil {
			t.Errorf("%s: New = %v", tc.name, err)
		}
	}
}

func TestSystemClassPresets(t *testing.T) {
	mcm, ms, base := MCMConfig(), MultiSocketConfig(), ScaledConfig()
	if err := mcm.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	if mcm.RingLinkBW <= base.RingLinkBW {
		t.Fatal("MCM links should be faster than the baseline")
	}
	if ms.RingLinkBW >= base.RingLinkBW {
		t.Fatal("multi-socket links should be slower than the baseline")
	}
	if ms.RingHopLatency <= mcm.RingHopLatency {
		t.Fatal("multi-socket hops should be slower than MCM hops")
	}
}
