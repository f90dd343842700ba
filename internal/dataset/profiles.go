package dataset

import "fmt"

// Profile describes one of the paper's seven real-life datasets (Table II)
// together with the scaled-down synthetic configuration we substitute for it.
// PaperRecords/PaperAvgLen/PaperDistinct record the published values for
// reference; Config is what we actually generate.
type Profile struct {
	Name          string
	PaperRecords  int
	PaperAvgLen   float64
	PaperDistinct int
	Config        SyntheticConfig
}

// Profiles returns the seven Table II profiles, scaled to laptop size while
// preserving the two power-law exponents and the qualitative size ratios
// (e.g. COD and WEBSPAM keep their unusually long records, WDC its short
// ones). The scaling substitution is documented in DESIGN.md §3.
func Profiles() []Profile {
	return []Profile{
		{
			Name:         "NETFLIX",
			PaperRecords: 480189, PaperAvgLen: 209.25, PaperDistinct: 17770,
			Config: SyntheticConfig{
				NumRecords: 4000, Universe: 6000,
				AlphaFreq: 1.14, AlphaSize: 4.95,
				MinSize: 80, MaxSize: 2000,
			},
		},
		{
			Name:         "DELIC",
			PaperRecords: 833081, PaperAvgLen: 98.42, PaperDistinct: 4512099,
			Config: SyntheticConfig{
				NumRecords: 4000, Universe: 40000,
				AlphaFreq: 1.14, AlphaSize: 3.05,
				MinSize: 40, MaxSize: 1500,
			},
		},
		{
			Name:         "COD",
			PaperRecords: 65553, PaperAvgLen: 6284, PaperDistinct: 111011807,
			Config: SyntheticConfig{
				NumRecords: 1500, Universe: 120000,
				AlphaFreq: 1.09, AlphaSize: 1.81,
				MinSize: 200, MaxSize: 8000,
			},
		},
		{
			Name:         "ENRON",
			PaperRecords: 517431, PaperAvgLen: 133.57, PaperDistinct: 1113219,
			Config: SyntheticConfig{
				NumRecords: 4000, Universe: 30000,
				AlphaFreq: 1.16, AlphaSize: 3.10,
				MinSize: 60, MaxSize: 1500,
			},
		},
		{
			Name:         "REUTERS",
			PaperRecords: 833081, PaperAvgLen: 77.6, PaperDistinct: 283906,
			Config: SyntheticConfig{
				NumRecords: 4000, Universe: 15000,
				AlphaFreq: 1.32, AlphaSize: 6.61,
				MinSize: 60, MaxSize: 1000,
			},
		},
		{
			Name:         "WEBSPAM",
			PaperRecords: 350000, PaperAvgLen: 3728, PaperDistinct: 16609143,
			Config: SyntheticConfig{
				NumRecords: 1200, Universe: 150000,
				AlphaFreq: 1.33, AlphaSize: 9.34,
				MinSize: 400, MaxSize: 5000,
			},
		},
		{
			Name:         "WDC",
			PaperRecords: 262893406, PaperAvgLen: 29.2, PaperDistinct: 111562175,
			Config: SyntheticConfig{
				NumRecords: 6000, Universe: 50000,
				AlphaFreq: 1.08, AlphaSize: 2.4,
				MinSize: 10, MaxSize: 300,
			},
		},
	}
}

// ProfileByName returns the named profile, matching case-sensitively.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("dataset: unknown profile %q", name)
}

// Generate materializes the profile's synthetic dataset with the given seed.
func (p Profile) Generate(seed int64) (*Dataset, error) {
	return Synthetic(p.Config, seed)
}
