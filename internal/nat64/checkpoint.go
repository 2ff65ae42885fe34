package nat64

// Checkpoint saves the translator's state — session tables, port
// cursor, counters and pathology knobs — for Restore. It backs testbed
// world reuse: a pooled world rewinds its translator to the exact
// post-Build state instead of rebuilding the whole topology. The
// configuration (prefix, port range, timeouts) is set before the
// checkpoint and is not saved.
func (t *Translator) Checkpoint() {
	t.saved = new(translatorState)
	t.translatorState.copyInto(t.saved)
}

// Restore rewinds the translator to its checkpoint.
func (t *Translator) Restore() {
	t.saved.copyInto(&t.translatorState)
}

func (s *translatorState) copyInto(dst *translatorState) {
	live := *dst
	*dst = *s

	// Sessions change in place, and each outbound entry shares its
	// session with the inbound entry for the same external port: copy
	// every session once and point both of dst's entries at the copy.
	in, out := live.inbound, live.outbound
	if in == nil {
		in, out = make(map[extKey]*Session, len(s.inbound)), make(map[mapKey]*Session, len(s.outbound))
	}
	clear(in)
	clear(out)
	for k, se := range s.inbound {
		cp := *se
		in[k] = &cp
	}
	for k, se := range s.outbound {
		out[k] = in[extKey{proto: k.proto, port: se.ExtPort}]
	}
	dst.inbound, dst.outbound = in, out
}
