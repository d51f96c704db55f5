// SharedOverlay: the cross-query accumulator of measured cardinalities.
// Where FeedbackOverlay serves one single-threaded feedback loop, the
// shared overlay is written by every query a service engine executes and
// read by every optimization it runs — concurrently. The discipline is
// copy-on-write with an epoch counter:
//
//   - Readers take an immutable Snapshot: a plain *FeedbackOverlay that
//     is never mutated after publication. An optimization installs the
//     snapshot as its Source and runs against frozen statistics, so
//     the parallel DP driver's workers-1≡8 bit-identity contract holds
//     unchanged — no measurement published mid-optimization can leak in.
//   - Writers Publish a harvested profile: the current version is copied,
//     the profile merged in, and the new version installed atomically.
//     Publication is idempotent — a profile that changes no measurement
//     leaves the version (and its epoch) in place, so a steady-state
//     workload re-measuring the same cardinalities forever does not
//     invalidate plan caches keyed by epoch.
package cost

import (
	"sync"
	"sync/atomic"
)

// overlayVersion is one immutable published state of a SharedOverlay.
type overlayVersion struct {
	epoch   uint64
	overlay *FeedbackOverlay
}

// SharedOverlay accumulates measured cardinalities across queries behind
// a copy-on-write/epoch discipline. The zero value is not usable;
// construct with NewSharedOverlay.
type SharedOverlay struct {
	cur atomic.Pointer[overlayVersion]
	// pub serializes writers; readers never take it.
	pub sync.Mutex
}

// NewSharedOverlay returns an empty shared overlay at epoch 0.
func NewSharedOverlay() *SharedOverlay {
	s := &SharedOverlay{}
	s.cur.Store(&overlayVersion{overlay: NewFeedbackOverlay()})
	return s
}

// Snapshot returns the current measurements as an immutable overlay plus
// the epoch it belongs to. The returned overlay is never mutated — it is
// safe to install as core.Options.Stats and share across the parallel
// optimizer's workers for the whole optimization.
func (s *SharedOverlay) Snapshot() (*FeedbackOverlay, uint64) {
	v := s.cur.Load()
	return v.overlay, v.epoch
}

// Epoch returns the current epoch without materializing a snapshot.
func (s *SharedOverlay) Epoch() uint64 {
	return s.cur.Load().epoch
}

// Len returns the number of measured keys in the current version.
func (s *SharedOverlay) Len() int {
	return s.cur.Load().overlay.Len()
}

// Publish merges a harvested profile into the shared state and returns
// the resulting epoch plus whether anything changed. A profile whose
// every measurement already equals the stored value is a no-op: the
// current version stays installed and the epoch does not advance —
// steady-state workloads keep their cached plans. Otherwise the current
// overlay is copied, the profile merged (profile wins on collisions,
// matching FeedbackOverlay.Set), and the copy published under the next
// epoch. Snapshots handed out earlier remain valid and frozen.
func (s *SharedOverlay) Publish(profile *FeedbackOverlay) (epoch uint64, changed bool) {
	if profile == nil || profile.Len() == 0 {
		return s.Epoch(), false
	}
	s.pub.Lock()
	defer s.pub.Unlock()
	v := s.cur.Load()
	changed = false
	for k, card := range profile.m {
		if have, ok := v.overlay.m[k]; !ok || have != card {
			changed = true
			break
		}
	}
	if !changed {
		return v.epoch, false
	}
	next := NewFeedbackOverlay()
	next.Merge(v.overlay)
	next.Merge(profile)
	nv := &overlayVersion{epoch: v.epoch + 1, overlay: next}
	s.cur.Store(nv)
	return nv.epoch, true
}
