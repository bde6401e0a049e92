package kb

// Diff describes how one KB epoch differs from its predecessor, in
// terms the incremental matching layers consume: an ID remap (entity
// order is sorted subject order, so inserts and deletes shift IDs),
// and conservative per-entity change sets. "Changed" flags compare the
// semantic content — predicate names and value strings, target URIs —
// so they are stable under dictionary renumbering; they may
// over-approximate (flagging an entity whose derived evidence happens
// to be unchanged costs a recompute, never correctness).
type Diff struct {
	// Remap maps old entity IDs to new ones (-1: deleted). It is
	// monotone on survivors: sorted-order mutations preserve relative
	// order.
	Remap []EntityID
	// Back maps new entity IDs to old ones (-1: inserted).
	Back []EntityID
	// AttrsChanged lists new-space entities whose attribute lists
	// (predicate name, value) differ — their token bags and name keys
	// may have changed.
	AttrsChanged []EntityID
	// EdgesChanged lists new-space entities whose relation edges (in
	// or out, as predicate name + target URI) differ — their best
	// neighbors may have changed.
	EdgesChanged []EntityID
	// Inserted lists new-space entities absent from the old KB;
	// Deleted lists old-space entities absent from the new one.
	Inserted []EntityID
	Deleted  []EntityID
	// Identity is true when old and new are the same object — nothing
	// to remap or recompute on this side.
	Identity bool

	shifted bool // any entity ID moved (precomputed)
}

// ComputeDiff diffs two KB epochs. O(entities + triples).
func ComputeDiff(old, new *KB) *Diff {
	if old == new {
		return &Diff{Identity: true}
	}
	d := &Diff{
		Remap: make([]EntityID, old.Len()),
		Back:  make([]EntityID, new.Len()),
	}
	for i := range d.Remap {
		d.Remap[i] = -1
	}
	oldURIs := old.uris()
	for i := range new.entities {
		ne := &new.entities[i]
		oid, ok := oldURIs[ne.URI]
		if !ok {
			d.Back[i] = -1
			d.Inserted = append(d.Inserted, EntityID(i))
			continue
		}
		d.Back[i] = oid
		d.Remap[oid] = EntityID(i)
		oe := &old.entities[oid]
		if !sameAttrs(old, oe, new, ne) {
			d.AttrsChanged = append(d.AttrsChanged, EntityID(i))
		}
		if !sameEdges(old, oe.Out, new, ne.Out) || !sameEdges(old, oe.In, new, ne.In) {
			d.EdgesChanged = append(d.EdgesChanged, EntityID(i))
		}
	}
	for oid := range old.entities {
		if d.Remap[oid] < 0 {
			d.Deleted = append(d.Deleted, EntityID(oid))
		}
	}
	if len(d.Inserted) > 0 || len(d.Deleted) > 0 {
		d.shifted = true
	} else {
		for i, id := range d.Back {
			if id != EntityID(i) {
				d.shifted = true
				break
			}
		}
	}
	return d
}

// RemapID translates an old-space ID (identity when the diff is one).
func (d *Diff) RemapID(id EntityID) EntityID {
	if d.Identity {
		return id
	}
	return d.Remap[id]
}

// BackID translates a new-space ID to old space (identity diffs pass
// through).
func (d *Diff) BackID(id EntityID) EntityID {
	if d.Identity {
		return id
	}
	return d.Back[id]
}

// Shifted reports whether any entity IDs moved (so downstream ID-bearing
// structures need rewriting rather than sharing).
func (d *Diff) Shifted() bool { return d.shifted }

// sameAttrs compares attribute lists by (predicate name, value),
// elementwise. Attribute order is deterministic given the underlying
// triples, so an order difference implies a content difference.
func sameAttrs(okb *KB, oe *Entity, nkb *KB, ne *Entity) bool {
	if len(oe.Attrs) != len(ne.Attrs) {
		return false
	}
	for i := range oe.Attrs {
		if oe.Attrs[i].Value != ne.Attrs[i].Value ||
			okb.preds[oe.Attrs[i].Pred] != nkb.preds[ne.Attrs[i].Pred] {
			return false
		}
	}
	return true
}

// sameEdges compares edge lists by (predicate name, target URI),
// elementwise.
func sameEdges(okb *KB, oe []Edge, nkb *KB, ne []Edge) bool {
	if len(oe) != len(ne) {
		return false
	}
	for i := range oe {
		if okb.preds[oe[i].Pred] != nkb.preds[ne[i].Pred] ||
			okb.entities[oe[i].Target].URI != nkb.entities[ne[i].Target].URI {
			return false
		}
	}
	return true
}
