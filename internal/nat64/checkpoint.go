package nat64

// Checkpoint saves the translator's state — its session table with the
// port cursor, counters and pathology knobs — for Restore. It backs
// testbed world reuse: a pooled world rewinds its translator to the
// exact post-Build state instead of rebuilding the whole topology. The
// configuration (prefix, port range, timeouts) is set before the
// checkpoint and is not saved.
func (t *Translator) Checkpoint() {
	saved := t.translatorState
	t.saved = &saved
	t.table.Checkpoint()
}

// Restore rewinds the translator to its checkpoint.
func (t *Translator) Restore() {
	t.translatorState = *t.saved
	t.table.Restore()
}
