package gbkmv

import (
	"io"
	"time"
)

// Segmented is what is left of the segmented layer, which sharded a
// collection across n independent indexes: a collection is now one engine.
// Only the benchmark module (bench/) still names it, and this file goes with
// it when that module is unlinked (ROADMAP 7b). Nothing else may call it.
type Segmented struct {
	Engine
	onSave func(segment int, d time.Duration)
}

// NewSegmented builds one engine, whatever n is.
func NewSegmented(inner string, n int, records []Record, opt EngineOptions) (*Segmented, error) {
	e, err := NewEngine(inner, records, opt)
	if err != nil {
		return nil, err
	}
	return &Segmented{Engine: e}, nil
}

// SetSaveObserver installs a callback Save calls once with its encode time.
func (s *Segmented) SetSaveObserver(f func(segment int, d time.Duration)) { s.onSave = f }

// SegmentRecords returns the record count of the one index.
func (s *Segmented) SegmentRecords() []int { return []int{s.Len()} }

// Save is SaveEngine on the engine, reported to the save observer.
func (s *Segmented) Save(w io.Writer) error {
	start := time.Now()
	err := SaveEngine(w, s.Engine)
	if s.onSave != nil {
		s.onSave(0, time.Since(start))
	}
	return err
}
