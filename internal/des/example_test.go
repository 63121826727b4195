package des_test

import (
	"fmt"

	"iobehind/internal/des"
)

// A producer/consumer pair in virtual time: the engine runs exactly one
// process at a time, so the output ordering is fully deterministic.
func Example() {
	e := des.NewEngine(1)
	box := des.NewMailbox[string](e)

	e.Spawn("producer", func(p *des.Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(des.Second)
			box.Put(fmt.Sprintf("item %d", i))
		}
	})
	e.Spawn("consumer", func(p *des.Proc) {
		for i := 0; i < 3; i++ {
			item := box.Get(p)
			fmt.Printf("%v: got %s\n", p.Now(), item)
		}
	})

	if err := e.Run(); err != nil {
		panic(err)
	}
	// Output:
	// 1.000s: got item 0
	// 2.000s: got item 1
	// 3.000s: got item 2
}

// A callback scheduled at an absolute virtual instant runs when the
// engine's clock reaches it.
func ExampleEngine_Schedule() {
	e := des.NewEngine(1)
	e.Schedule(des.Time(2*des.Second), des.PrioNormal, func() {
		fmt.Println("timer fired at", e.Now())
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	// Output:
	// timer fired at 2.000s
}
