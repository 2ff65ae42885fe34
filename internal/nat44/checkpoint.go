package nat44

// Checkpoint saves the translator's state — session tables, port
// cursor, compliance log and counters — for Restore. It is part of the
// testbed world-reuse lifecycle.
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
	dst.Log = append(live.Log[:0], s.Log...)

	// Sessions change in place, and each outbound entry shares its
	// session with the inbound entry for the same external port: copy
	// every session once and point both of dst's entries at the copy.
	in, out := live.inbound, live.outbound
	if in == nil {
		in, out = make(map[extKey]*session, len(s.inbound)), make(map[key]*session, len(s.outbound))
	}
	clear(in)
	clear(out)
	for k, se := range s.inbound {
		cp := *se
		in[k] = &cp
	}
	for k, se := range s.outbound {
		out[k] = in[extKey{proto: k.proto, port: se.extPort}]
	}
	dst.inbound, dst.outbound = in, out
}
