package engine

// HeldV0 reports whether an evaluation has ever handed the device a v⁰, so
// the hand-over tests can tell a run that used the mechanism from one that
// never engaged it.
func (d *Device) HeldV0() bool { return d.v0 != nil }

// HandedOver returns the v⁰ the device holds for round t, nil when it holds
// none for that round.
func (d *Device) HandedOver(t int) []float64 {
	if d.v0Round.Load() != int64(t) {
		return nil
	}
	return d.v0
}

// SetBusy marks the device as still solving a cut round, as Parallel does.
func (d *Device) SetBusy(b bool) { d.busy.Store(b) }
