package nat44

// Checkpoint saves the translator's state — its session table with the
// port cursor, the compliance log and the counters — for Restore. It is
// part of the testbed world-reuse lifecycle.
func (t *Translator) Checkpoint() {
	t.saved = new(translatorState)
	t.translatorState.copyInto(t.saved)
	t.table.Checkpoint()
}

// Restore rewinds the translator to its checkpoint.
func (t *Translator) Restore() {
	t.saved.copyInto(&t.translatorState)
	t.table.Restore()
}

func (s *translatorState) copyInto(dst *translatorState) {
	log := dst.Log
	*dst = *s
	dst.Log = append(log[:0], s.Log...)
}
