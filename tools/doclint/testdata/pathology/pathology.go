// Package pathology registers catalog entries that miss the bar.
package pathology

// Pathology stands in for the registry's type.
type Pathology struct {
	Name, Source, Mechanism, ScheduleDoc string
	Schedule                             int
}

// unsourced names no source.
var unsourced = Pathology{Name: "unsourced", Mechanism: "a mechanism"}

// unscheduled carries a schedule but does not document it.
var unscheduled = Pathology{Name: "unscheduled", Source: "a paper", Mechanism: "a mechanism", Schedule: 1}
