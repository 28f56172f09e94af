package simba

import "simba/internal/world"

// WorldOptions tunes a simulated world: Seed drives all randomness
// (default 1), and HeavyTails selects realistic heavy-tailed email/SMS
// delays with 2 % / 5 % loss instead of fixed short delays.
type WorldOptions = world.Options

// World bundles the simulated communication substrate: the virtual
// clock, the machine the buddy runs on, the IM/email/SMS services, the
// web, and a journal of fault/recovery actions. CreatePersonalAccounts
// provisions a person's IM handle, mailboxes and phone. Close it when
// done: Close ends every goroutine still live on its clock.
type World = world.World

// NewWorld builds a simulated world.
func NewWorld(opts WorldOptions) (*World, error) { return world.New(opts) }
