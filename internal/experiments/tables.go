package experiments

import (
	"fmt"
	"io"

	"gbkmv/internal/dataset"
)

// Table2Row is one dataset row of Table II.
type Table2Row struct {
	Name             string
	NumRecords       int
	AvgRecordLen     float64
	DistinctElements int
	AlphaFreq        float64 // fitted α1
	AlphaSize        float64 // fitted α2
	TargetAlphaFreq  float64 // the paper's published α1
	TargetAlphaSize  float64 // the paper's published α2
}

// Table2 regenerates Table II: for every profile it materializes the
// synthetic stand-in and reports its measured characteristics next to the
// generator's configured exponents.
//
// Parametrization note: the generator's element-frequency skew z1 is a
// rank-frequency Zipf exponent (p_i ∝ i^−z1), while the fitted α1 column is
// the MLE exponent of the frequency-value distribution (P(f) ∝ f^−α1, the
// Clauset-style fit the paper reports). For a rank exponent z the two relate
// by α1 ≈ 1 + 1/z, so z1 ≈ 1.1 fits as α1 ≈ 1.9 — both describe the same
// skew. α2 is fitted in the same parametrization it is generated in, so it
// matches its target directly.
func Table2(w io.Writer, cfg Config) ([]Table2Row, error) {
	cfg = cfg.WithDefaults()
	header(w, "Table II: dataset characteristics (synthetic stand-ins)")
	fmt.Fprintf(w, "%-9s %9s %9s %10s %8s %8s %10s %10s\n",
		"Dataset", "#Records", "AvgLen", "#Distinct", "α1-fit", "α2-fit", "z1-gen", "α2-gen")
	rows := make([]Table2Row, 0, 7)
	for _, p := range dataset.Profiles() {
		d, err := generate(p, cfg)
		if err != nil {
			return nil, err
		}
		st, err := d.ComputeStats()
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Name:             p.Name,
			NumRecords:       st.NumRecords,
			AvgRecordLen:     st.AvgRecordLen,
			DistinctElements: st.DistinctElements,
			AlphaFreq:        st.AlphaFreq,
			AlphaSize:        st.AlphaSize,
			TargetAlphaFreq:  p.Config.AlphaFreq,
			TargetAlphaSize:  p.Config.AlphaSize,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-9s %9d %9.1f %10d %8.2f %8.2f %10.2f %10.2f\n",
			row.Name, row.NumRecords, row.AvgRecordLen, row.DistinctElements,
			row.AlphaFreq, row.AlphaSize, row.TargetAlphaFreq, row.TargetAlphaSize)
	}
	return rows, nil
}

// Table3Row is one row of Table III (space usage, %).
type Table3Row struct {
	Name         string
	GBKMVPercent float64
	LSHEPercent  float64
}

// Table3 regenerates Table III: GB-KMV is built at the paper's default 10%
// budget; LSH-E stores 256 hash values per record regardless of record
// length, so its relative space is 256·m/N — above 100% on short-record
// datasets, exactly the effect the paper reports.
func Table3(w io.Writer, cfg Config) ([]Table3Row, error) {
	cfg = cfg.WithDefaults()
	header(w, "Table III: space usage (% of dataset size)")
	fmt.Fprintf(w, "%-9s %10s %10s\n", "Dataset", "GB-KMV", "LSH-E")
	rows := make([]Table3Row, 0, 7)
	for _, p := range dataset.Profiles() {
		d, err := generate(p, cfg)
		if err != nil {
			return nil, err
		}
		n := float64(d.TotalElements())
		gb, err := buildRegistered("gbkmv", d, cfg.atBudget(0.10))
		if err != nil {
			return nil, err
		}
		ls, err := buildRegistered("lshensemble", d, cfg.withHashes(256))
		if err != nil {
			return nil, err
		}
		row := Table3Row{
			Name:         p.Name,
			GBKMVPercent: 100 * float64(gb.EngineStats().UsedUnits) / n,
			LSHEPercent:  100 * float64(ls.EngineStats().UsedUnits) / n,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-9s %9.1f%% %9.1f%%\n", row.Name, row.GBKMVPercent, row.LSHEPercent)
	}
	return rows, nil
}
