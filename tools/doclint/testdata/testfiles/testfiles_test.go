package testfiles

func Helper() {}

type Fixture struct{}
