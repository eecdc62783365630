package router

import (
	"errors"
	"sync/atomic"

	"microrec/internal/core"
	"microrec/internal/embedding"
	"microrec/internal/model"
	"microrec/internal/serving"
	"microrec/internal/tieredstore"
)

// HotEngine adapts any serving.Engine into a serving.Reloadable one: every
// seam method delegates through an atomic pointer, and Reload swaps the
// delegate under live traffic — the in-place model-refresh path
// Router.Reload drives. The replacement must be geometry-compatible with the
// engine it replaces (refreshed parameters, not a different architecture):
// the server sizes planes per batch and does not re-derive them on reload. A
// reload takes effect at stage-call granularity — a plane gathered by the old
// engine may finish its FC stack on the new one, which the compatibility
// contract makes benign.
//
// Capability forwarding: HotEngine always implements the optional Tiered and
// Prefetcher capabilities, reporting no store (and a no-op prefetch) while
// the current delegate lacks them — the pattern the capability docs on the
// Engine seam prescribe for wrappers.
type HotEngine struct {
	cur atomic.Pointer[engineBox]
}

// engineBox exists because atomic.Pointer needs a concrete pointee; it pins
// one delegate.
type engineBox struct{ eng serving.Engine }

// Compile-time seam checks: the wrapper is a full Engine and carries the
// Reloadable plus forwarded tier capabilities.
var (
	_ serving.Engine     = (*HotEngine)(nil)
	_ serving.Reloadable = (*HotEngine)(nil)
	_ serving.Tiered     = (*HotEngine)(nil)
	_ serving.Prefetcher = (*HotEngine)(nil)
)

// NewHotEngine wraps an engine for hot reload.
func NewHotEngine(eng serving.Engine) (*HotEngine, error) {
	if eng == nil {
		return nil, errors.New("router: nil engine")
	}
	h := &HotEngine{}
	h.cur.Store(&engineBox{eng: eng})
	return h, nil
}

// Reload implements serving.Reloadable: subsequent seam calls hit next. The
// caller owns the retired engine's teardown (and must keep it alive until
// in-flight planes drain — in practice until the next server-level quiesce).
func (h *HotEngine) Reload(next serving.Engine) error {
	if next == nil {
		return errors.New("router: reload with nil engine")
	}
	h.cur.Store(&engineBox{eng: next})
	return nil
}

// Current returns the live delegate.
func (h *HotEngine) Current() serving.Engine { return h.cur.Load().eng }

// pipeline.StageEngine delegation.

// EnsurePlane implements the Engine seam by delegation.
func (h *HotEngine) EnsurePlane(s *core.BatchScratch, b int) { h.Current().EnsurePlane(s, b) }

// GatherIntoPlane implements the Engine seam by delegation.
func (h *HotEngine) GatherIntoPlane(queries []embedding.Query, s *core.BatchScratch) {
	h.Current().GatherIntoPlane(queries, s)
}

// DenseFromPlane implements the Engine seam by delegation.
func (h *HotEngine) DenseFromPlane(b int, s *core.BatchScratch) { h.Current().DenseFromPlane(b, s) }

// TailFromPlane implements the Engine seam by delegation.
func (h *HotEngine) TailFromPlane(b int, s *core.BatchScratch, dst []float32) {
	h.Current().TailFromPlane(b, s, dst)
}

// ValidateQuery implements the Engine seam by delegation.
func (h *HotEngine) ValidateQuery(q embedding.Query) error { return h.Current().ValidateQuery(q) }

// Spec implements the Engine seam by delegation.
func (h *HotEngine) Spec() *model.Spec { return h.Current().Spec() }

// Tier forwards the delegate's Tiered capability (nil when absent).
func (h *HotEngine) Tier() *tieredstore.Store {
	if te, ok := h.Current().(serving.Tiered); ok {
		return te.Tier()
	}
	return nil
}

// PrefetchBatch forwards the delegate's Prefetcher capability (no-op when
// absent).
func (h *HotEngine) PrefetchBatch(queries []embedding.Query) {
	if pf, ok := h.Current().(serving.Prefetcher); ok {
		pf.PrefetchBatch(queries)
	}
}
