// Package simba is a Go implementation of the SIMBA user alert
// service architecture for dependable alert delivery (Wang, Bahl,
// Russell — Microsoft Research, DSN 2001 / MSR-TR-2000-117).
//
// SIMBA routes user-subscribed alerts from many sources (web alert
// proxies, home-automation gateways, location trackers, desktop
// assistants, portal services) to many devices (instant messaging,
// SMS, email) through a personal, always-on router called
// MyAlertBuddy. Its contributions, all implemented here:
//
//   - Instant Messaging with application-level acknowledgements as the
//     timely, reliable alert channel, with email as the fallback;
//   - delivery modes — XML documents of communication blocks, each a
//     set of addressed actions with a confirmation timeout — as the
//     user's abstraction for personalized dependability levels;
//   - MyAlertBuddy, a level of indirection between alert services and
//     the user that classifies, aggregates, filters, and routes
//     alerts, protecting the privacy of the user's real addresses;
//   - exception-handling automation (sanity checking, shutdown/
//     restart, and dialog-box handling via a "monkey thread") plus
//     pessimistic logging, a watchdog, self-stabilization, and
//     software rejuvenation to keep the buddy highly available.
//
// Because the paper's substrate (MSN Messenger, Outlook/Exchange, a
// cellular SMS carrier, real web sites, an instrumented house, an
// 802.11 testbed) is not reproducible offline, every external
// dependency is provided as a faithful simulator driven by a virtual
// clock; see DESIGN.md for the substitution table and EXPERIMENTS.md
// for the paper-vs-measured results.
//
// # Quick start
//
// Build a simulated world, a buddy, and a user; subscribe; deliver:
//
//	world, _ := simba.NewWorld(simba.WorldOptions{Seed: 1})
//	defer world.Close()
//	buddy, _ := simba.NewBuddy(world, simba.BuddyOptions{
//		IMHandle: "my-buddy", EmailAddress: "buddy@sim", LogPath: "buddy.plog",
//	})
//	// ... register the user's addresses, modes, and subscriptions,
//	// start everything, and send alerts through a SourceLink.
//
// See examples/quickstart for the complete runnable program.
package simba
