// Package shard distributes Monte Carlo sweeps across processes and
// machines with an exactness guarantee: because every trial of a sweep
// point draws its randomness from the stream (point seed, trial index),
// any disjoint partition of the trial range can be computed anywhere and
// merged back to results bit-for-bit identical to a single-process
// mc.Sweep run — integer outcome tallies sum exactly, and numeric moments
// merge through mc's canonical moment tree (mc.Moments), which is
// partition- and order-independent by construction.
//
// The package has three layers:
//
//   - A versioned JSON wire format: ShardSpec names the work (sweep id,
//     parameter grid, trial range [Lo, Hi), seed, outcome arity) and
//     ShardResult carries the tallies (per-point counts, or canonical
//     moment nodes for numeric sweeps) plus the covered trial ranges.
//   - Pure merge functions: MergeResults/MergeAll are associative and
//     order-independent, and reject duplicate or overlapping shards;
//     MergeSummaries merges standalone moment forests.
//   - A coordinator: SweepSpec.Partition splits a sweep into shards,
//     Coordinate fans them out over a Runner (in-process via LocalRunner,
//     one OS process per shard via ExecRunner and the cmd/sweepd worker
//     mode, or a fleet of long-lived TCP workers via RemotePool/Server)
//     and merges, reporting missing trial ranges when workers fail.
//     ResumeCoordinate adds crash safety: completed results are written
//     to an fsync'd, checksummed Journal, and an interrupted sweep
//     resumes from it, re-dispatching only the missing trial ranges.
//
// Trial bodies are resolved by name through a Registry, so a ShardSpec is
// runnable in a fresh process that shares nothing with the coordinator
// but the binary. See docs/sharding.md for the formats (JSON messages,
// TCP framing, journal records) and versioning policy.
package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"stochsynth/internal/mc"
)

// FormatVersion is the wire-format version stamped into every ShardSpec
// and ShardResult this build produces. Any change to the encoded shape or
// the meaning of a field — including renaming a JSON key of
// mc.MomentNode — must bump it; the golden fixtures under testdata/ pin
// the current encoding.
//
// Version history:
//
//	1 — tally and numeric sweeps (counts / canonical moment forests).
//	2 — adds distribution sweeps: the dist flag on specs/results and the
//	    per-point dist summary bundle (moments + quantile sketch +
//	    fixed-bin histogram + first-passage summary).
//	3 — adds user-submitted networks: a spec may carry a NetworkSpec (the
//	    chem.ParseNetwork text format plus an observable/outcome spec),
//	    validated against resource limits and compiled on the worker; its
//	    sweep id is content-addressed ("crn/<hash>"). v1/v2 messages are
//	    still decoded (they cannot carry the fields introduced after
//	    them); encoding always stamps version 3.
const FormatVersion = 3

// formatVersionV1 and formatVersionV2 are the previous wire versions,
// still accepted on decode.
const (
	formatVersionV1 = 1
	formatVersionV2 = 2
)

// versionAccepted reports whether this build can decode format version v.
func versionAccepted(v int) bool {
	return v == formatVersionV1 || v == formatVersionV2 || v == FormatVersion
}

// Range is a half-open trial-index interval [Lo, Hi).
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of trials in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// ShardSpec describes one shard of a sweep: run trials [Lo, Hi) of every
// grid point of the named sweep. It is the unit of work handed to a
// worker (cmd/sweepd -worker reads one from stdin).
type ShardSpec struct {
	// Version is the wire-format version (FormatVersion).
	Version int `json:"version"`
	// Sweep names the trial factory in the worker's Registry.
	Sweep string `json:"sweep"`
	// Grid is the sweep's parameter grid; every shard of a sweep carries
	// the full grid so per-point seeds and result shapes line up.
	Grid []float64 `json:"grid"`
	// Trials is the total number of trials per grid point in the full
	// sweep; shards of the same sweep must agree on it.
	Trials int `json:"trials"`
	// Lo, Hi bound this shard's trial range [Lo, Hi) ⊆ [0, Trials).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Seed is the sweep's base seed; point i draws from streams seeded
	// with mc.PointSeed(Seed, i).
	Seed uint64 `json:"seed"`
	// Outcomes is the outcome arity for tally sweeps (> 0); zero for
	// numeric sweeps. Distribution sweeps reuse it as the first-passage
	// outcome arity (> 0).
	Outcomes int `json:"outcomes,omitempty"`
	// Numeric marks a numeric (moment-accumulating) sweep.
	Numeric bool `json:"numeric,omitempty"`
	// Dist marks a distribution sweep (format version 2): every point
	// accumulates a mc.DistSummary instead of bare counts or moments. The
	// histogram layout is part of the registered factory — or, for network
	// sweeps, of the NetworkSpec.
	Dist bool `json:"dist,omitempty"`
	// Network, when non-nil, carries the model itself (format version 3):
	// the worker validates it against resource limits, compiles it, and
	// runs the spec's observable instead of resolving Sweep in its
	// registry. Sweep must equal the spec's content-addressed SweepID.
	Network *NetworkSpec `json:"network,omitempty"`
}

// SpanRange returns the shard's trial range.
func (s ShardSpec) SpanRange() Range { return Range{Lo: s.Lo, Hi: s.Hi} }

// Validate checks the spec's invariants (without resolving the sweep
// name, which only the executing worker can do).
func (s ShardSpec) Validate() error {
	if !versionAccepted(s.Version) {
		return fmt.Errorf("shard: unknown format version %d (this build speaks %d)", s.Version, FormatVersion)
	}
	if s.Dist && s.Version < formatVersionV2 {
		return fmt.Errorf("shard: distribution sweeps need format version %d (got %d)", formatVersionV2, s.Version)
	}
	if s.Network != nil && s.Version < FormatVersion {
		return fmt.Errorf("shard: network sweeps need format version %d (got %d)", FormatVersion, s.Version)
	}
	if s.Sweep == "" {
		return fmt.Errorf("shard: spec has empty sweep id")
	}
	if len(s.Grid) == 0 {
		return fmt.Errorf("shard: spec has empty parameter grid")
	}
	for i, p := range s.Grid {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("shard: grid point %d is not finite", i)
		}
	}
	// Trials == 0 is a legal (empty) sweep: it dispatches no work and its
	// merged result is complete with zero covered ranges.
	if s.Trials < 0 {
		return fmt.Errorf("shard: spec has %d total trials, want >= 0", s.Trials)
	}
	if s.Lo < 0 || s.Hi < s.Lo || s.Hi > s.Trials {
		return fmt.Errorf("shard: trial range [%d,%d) outside [0,%d)", s.Lo, s.Hi, s.Trials)
	}
	switch {
	case s.Numeric && s.Dist:
		return fmt.Errorf("shard: spec sets both numeric and dist")
	case s.Numeric:
		if s.Outcomes != 0 {
			return fmt.Errorf("shard: numeric spec must not set outcomes (got %d)", s.Outcomes)
		}
	case s.Dist:
		if s.Outcomes <= 0 {
			return fmt.Errorf("shard: dist spec needs a first-passage arity, outcomes > 0 (got %d)", s.Outcomes)
		}
	case s.Outcomes <= 0:
		return fmt.Errorf("shard: tally spec needs outcomes > 0 (got %d)", s.Outcomes)
	}
	if s.Network != nil {
		return s.validateNetwork()
	}
	return nil
}

// PointTally is one grid point's share of a shard's results: integer
// outcome counts for tally sweeps, canonical moment nodes for numeric
// sweeps.
type PointTally struct {
	Param float64 `json:"param"`
	// Counts[i] is the number of covered trials classified as outcome i
	// (tally sweeps only).
	Counts []int64 `json:"counts,omitempty"`
	// None is the number of unclassifiable trials (tally sweeps only).
	None int64 `json:"none,omitempty"`
	// Moments is the canonical moment forest of the covered trials
	// (numeric sweeps only).
	Moments mc.Moments `json:"moments,omitempty"`
	// Dist is the distribution summary bundle of the covered trials
	// (dist sweeps only; format version 2). Nil only when no trials are
	// covered.
	Dist *mc.DistSummary `json:"dist,omitempty"`
}

// ShardResult carries the tallies of one shard — or of any merged set of
// shards — of a sweep. Ranges records exactly which trial indices are
// covered, so merging detects duplicates and overlap, and completion is
// checkable.
type ShardResult struct {
	Version  int       `json:"version"`
	Sweep    string    `json:"sweep"`
	Grid     []float64 `json:"grid"`
	Trials   int       `json:"trials"`
	Seed     uint64    `json:"seed"`
	Outcomes int       `json:"outcomes,omitempty"`
	Numeric  bool      `json:"numeric,omitempty"`
	Dist     bool      `json:"dist,omitempty"`
	// Ranges is the sorted, disjoint, coalesced set of covered trial
	// ranges. A freshly computed shard has exactly one (its spec's
	// [Lo, Hi)); merged results may have several until they are complete.
	Ranges []Range `json:"ranges"`
	// Points parallels Grid.
	Points []PointTally `json:"points"`
}

// Covered returns the number of distinct trials covered per grid point.
func (r ShardResult) Covered() int {
	n := 0
	for _, rg := range r.Ranges {
		n += rg.Len()
	}
	return n
}

// Complete reports whether the result covers the whole sweep [0, Trials).
// A zero-trial sweep is complete with no covered ranges at all — requiring
// exactly one range would make it permanently incomplete.
func (r ShardResult) Complete() bool {
	if r.Trials == 0 {
		return len(r.Ranges) == 0
	}
	return len(r.Ranges) == 1 && r.Ranges[0] == Range{Lo: 0, Hi: r.Trials}
}

// MissingRanges returns the trial ranges of [0, Trials) not yet covered.
func (r ShardResult) MissingRanges() []Range {
	var missing []Range
	at := 0
	for _, rg := range r.Ranges {
		if rg.Lo > at {
			missing = append(missing, Range{Lo: at, Hi: rg.Lo})
		}
		at = rg.Hi
	}
	if at < r.Trials {
		missing = append(missing, Range{Lo: at, Hi: r.Trials})
	}
	return missing
}

// Validate checks the result's structural invariants: header sanity,
// range bookkeeping, and per-point tally consistency (counts sum to the
// covered trial total; moment forests cover exactly the recorded ranges).
func (r ShardResult) Validate() error {
	spec := ShardSpec{
		Version: r.Version, Sweep: r.Sweep, Grid: r.Grid, Trials: r.Trials,
		Seed: r.Seed, Outcomes: r.Outcomes, Numeric: r.Numeric, Dist: r.Dist,
	}
	// An empty result covers no trials; borrow spec validation with a
	// degenerate-but-legal range.
	if err := spec.Validate(); err != nil {
		return err
	}
	at := 0
	for i, rg := range r.Ranges {
		if rg.Lo < at || rg.Hi <= rg.Lo || rg.Hi > r.Trials {
			return fmt.Errorf("shard: result range %d %s is invalid or out of order", i, rg)
		}
		if rg.Lo == at && i > 0 {
			return fmt.Errorf("shard: result ranges %d and %d are adjacent but uncoalesced", i-1, i)
		}
		at = rg.Hi
	}
	if len(r.Points) != len(r.Grid) {
		return fmt.Errorf("shard: result has %d points for %d grid values", len(r.Points), len(r.Grid))
	}
	covered := int64(r.Covered())
	for i, pt := range r.Points {
		if math.Float64bits(pt.Param) != math.Float64bits(r.Grid[i]) {
			return fmt.Errorf("shard: point %d param %v does not match grid value %v", i, pt.Param, r.Grid[i])
		}
		if r.Numeric {
			if pt.Counts != nil || pt.None != 0 || pt.Dist != nil {
				return fmt.Errorf("shard: numeric point %d carries foreign tallies", i)
			}
			if err := pt.Moments.Validate(); err != nil {
				return fmt.Errorf("shard: point %d: %w", i, err)
			}
			if got := momentRanges(pt.Moments); !rangesEqual(got, r.Ranges) {
				return fmt.Errorf("shard: point %d moments cover %v, result claims %v", i, got, r.Ranges)
			}
			continue
		}
		if r.Dist {
			if pt.Counts != nil || pt.None != 0 || len(pt.Moments) != 0 {
				return fmt.Errorf("shard: dist point %d carries foreign tallies", i)
			}
			if pt.Dist == nil {
				if covered != 0 {
					return fmt.Errorf("shard: dist point %d has no summary but %d trials are covered", i, covered)
				}
				continue
			}
			if err := pt.Dist.Validate(r.Outcomes); err != nil {
				return fmt.Errorf("shard: point %d: %w", i, err)
			}
			if pt.Dist.N() != covered {
				return fmt.Errorf("shard: point %d summarises %d trials, but %d are covered", i, pt.Dist.N(), covered)
			}
			if got := momentRanges(pt.Dist.Moments); !rangesEqual(got, r.Ranges) {
				return fmt.Errorf("shard: point %d summary covers %v, result claims %v", i, got, r.Ranges)
			}
			continue
		}
		if len(pt.Counts) != r.Outcomes {
			return fmt.Errorf("shard: point %d has %d counts for %d outcomes", i, len(pt.Counts), r.Outcomes)
		}
		sum := pt.None
		if pt.None < 0 {
			return fmt.Errorf("shard: point %d has negative none tally", i)
		}
		for o, c := range pt.Counts {
			if c < 0 {
				return fmt.Errorf("shard: point %d outcome %d has negative count", i, o)
			}
			sum += c
		}
		if sum != covered {
			return fmt.Errorf("shard: point %d tallies sum to %d, but %d trials are covered", i, sum, covered)
		}
		if len(pt.Moments) != 0 || pt.Dist != nil {
			return fmt.Errorf("shard: tally point %d carries foreign tallies", i)
		}
	}
	return nil
}

// momentRanges returns the coalesced trial ranges covered by a canonical
// moment forest.
func momentRanges(m mc.Moments) []Range {
	spans := m.Spans()
	if len(spans) == 0 {
		return nil
	}
	out := make([]Range, len(spans))
	for i, s := range spans {
		out[i] = Range{Lo: s[0], Hi: s[1]}
	}
	return out
}

func rangesEqual(a, b []Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Encode serialises the spec as one line of version-stamped JSON,
// validating first.
func (s ShardSpec) Encode() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// Encode serialises the result as version-stamped JSON, validating first.
func (r ShardResult) Encode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// checkVersion reads just the version field. Decoding calls it only
// after the strict decode has failed, to pick the error: a future format
// (which may carry fields this build has never heard of) fails with a
// version message rather than an unknown-field one, and a document that
// is not one well-formed JSON value fails as malformed.
func checkVersion(data []byte) error {
	var v struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("shard: malformed message: %w", err)
	}
	if !versionAccepted(v.Version) {
		return fmt.Errorf("shard: unknown format version %d (this build speaks %d)", v.Version, FormatVersion)
	}
	return nil
}

// decodeStrict parses one message into v in a single pass, rejecting
// unknown fields and anything but whitespace after the document. On
// failure the error is the one the version peek would have given first,
// if any, so every error text is what a peek-then-decode reader reports.
// (A strict decode that succeeds implies the peek would too, up to an
// unaccepted version, which Validate then rejects with the same text.)
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err != nil {
		err = fmt.Errorf("shard: %w", err)
	} else if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		// The wire contract is one JSON document per message; trailing
		// bytes mean a corrupted worker stream (duplicated write, stray
		// log line).
		err = fmt.Errorf("shard: trailing data after message")
	}
	if err == nil {
		return nil
	}
	if verr := checkVersion(data); verr != nil {
		return verr
	}
	return err
}

// DecodeSpec parses and validates a ShardSpec, rejecting unknown format
// versions and unknown fields.
func DecodeSpec(data []byte) (ShardSpec, error) {
	var s ShardSpec
	if err := decodeStrict(data, &s); err != nil {
		return s, err
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// DecodeResult parses and validates a ShardResult, rejecting unknown
// format versions and unknown fields. Messages in the exact form Encode
// emits take a reflection-free parser (codec.go); anything else, and
// every error, goes through the strict standard-library decode.
func DecodeResult(data []byte) (ShardResult, error) {
	r, ok := decodeCanonical(data)
	if !ok {
		if err := decodeStrict(data, &r); err != nil {
			return r, err
		}
	}
	if err := r.Validate(); err != nil {
		return r, err
	}
	return r, nil
}
