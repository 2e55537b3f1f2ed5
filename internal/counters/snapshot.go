package counters

// HardwareSnapshot returns a copy of the sixteen 32-bit hardware counters
// plus the write-only spill slot, for copying a machine. The
// hardware-accurate view is part of the machine state (the chip does not
// clear on mode changes), so a copied machine must reproduce it bit for bit
// — including any wraparound already suffered.
func (s *Set) HardwareSnapshot() [HardwareCounters + 1]uint32 {
	s.fold()
	return s.hw
}

// Restore overwrites the counter block wholesale with another block's
// readings, as a fanout split copies its leader's: the mode register, the
// hardware counters (with spill slot), and the 64-bit software shadow.
// SetMode validates the mode.
func (s *Set) Restore(mode int, hw [HardwareCounters + 1]uint32, shadow [NumEvents]uint64) {
	s.SetMode(mode)
	s.hw = hw
	s.shadow = shadow
	s.mark = shadow
}
