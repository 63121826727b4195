// Fixture for the cachekey rule: every struct reachable from a
// runner.Point config must mark func/chan/unexported-interface fields
// json:"-". Rule applicability does not depend on the import path.
package fixture

import (
	"io"

	"iobehind/internal/runner"
)

type callback func()

type hidden interface{ do() }

// Doer is exported, so a field of this type marshals by dynamic value —
// accepted (the writer opted into an exported contract).
type Doer interface{ Do() }

type badConfig struct {
	Name    string
	OnDone  func()           // want "[cachekey] cache-keyed field OnDone contains func content"
	Events  chan int         // want "[cachekey] cache-keyed field Events contains chan content"
	Hooks   []func() bool    // want "[cachekey] cache-keyed field Hooks contains func content"
	Filter  hidden           // want "[cachekey] cache-keyed field Filter contains unexported-interface content"
	Inline  interface{ f() } // want "[cachekey] cache-keyed field Inline contains anonymous-interface content"
	cb      callback         // want "[cachekey] unexported cache-keyed field cb contains func content"
	Sink    io.Writer        // exported interface: allowed
	Do      Doer             // exported interface: allowed
	Nested  *nestedConfig
	Tagged  func()         `json:"-"` // excluded wiring: allowed
	Skipped *skippedConfig `json:"-"` // excluded: not descended into
	//iolint:ignore cachekey fixture: documented intentional hazard
	Pardoned func()
}

type nestedConfig struct {
	Ranks int
	Hook  func(int) // want "[cachekey] cache-keyed field Hook contains func content"
}

// skippedConfig sits behind a json:"-" field, so its hazards are outside
// the cache key and must not be reported.
type skippedConfig struct {
	Unreported func()
}

type assignedConfig struct {
	Ch chan string // want "[cachekey] cache-keyed field Ch contains chan content"
}

var _ = runner.Point{Key: "a", Config: badConfig{}}

func assign() runner.Point {
	var p runner.Point
	p.Config = &assignedConfig{}
	return p
}

// cleanConfig is never used as a Point config; its hazards are not the
// cache's business.
type cleanConfig struct {
	Unchecked func()
}
