package mgmtswitch

// Checkpoint saves the switch's state: its forwarding plane (learned
// table, snooped interest, filters, port table) and its counters. It is
// part of the testbed world-reuse lifecycle; the pending ULA beacon is
// the network clock's to save and re-arm.
func (s *Switch) Checkpoint() {
	saved := s.switchState
	s.saved = &saved
	s.Switch.Checkpoint()
}

// Restore rewinds the switch to its checkpoint.
func (s *Switch) Restore() {
	s.switchState = *s.saved
	s.Switch.Restore()
}
