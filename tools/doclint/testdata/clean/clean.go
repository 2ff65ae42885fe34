// Package clean documents everything it exports.
package clean

// Answer is documented.
const Answer = 42

// Limits are documented as a group.
const (
	Low  = 1
	High = 2
)

// T is documented.
type T struct{}

// M is documented.
func (T) M() {}

// F is documented.
func F() {}

func unexported() {}

// Pathology stands in for the registry's type.
type Pathology struct {
	Name, Source, Mechanism, ScheduleDoc string
	Schedule                             int
}

// full carries every field the catalog bar asks for.
var full = Pathology{
	Name: "full", Source: "a paper", Mechanism: "a mechanism",
	Schedule: 1, ScheduleDoc: "how it recovers",
}
