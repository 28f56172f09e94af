package simba

import (
	"time"

	"simba/internal/addr"
	"simba/internal/aladdin"
	"simba/internal/alert"
	"simba/internal/automation"
	"simba/internal/clock"
	"simba/internal/core"
	"simba/internal/dmode"
	"simba/internal/email"
	"simba/internal/enduser"
	"simba/internal/faults"
	"simba/internal/im"
	"simba/internal/mab"
	"simba/internal/mdc"
	"simba/internal/sms"
	"simba/internal/websim"
	"simba/internal/wish"
)

// Core data types.
type (
	// Alert is a single user-subscribed notification.
	Alert = alert.Alert
	// Address is one registered delivery address.
	Address = addr.Address
	// DeliveryMode is a named document of communication blocks.
	DeliveryMode = dmode.Mode
	// Block is one communication block of a delivery mode.
	Block = dmode.Block
	// Action addresses one delivery attempt within a block.
	Action = dmode.Action
	// ModeDuration is a time.Duration that XML-marshals as "30s".
	ModeDuration = dmode.Duration
	// Report summarizes one delivery-mode execution.
	Report = core.Report
	// Subscription maps a category to a subscriber and mode.
	Subscription = core.Subscription
	// Engine is the buddy-side delivery shell over the mode executor.
	Engine = core.Engine
	// Channel delivers one delivery-mode action over one communication
	// type.
	Channel = core.Channel
	// ChannelRegistry maps communication types to channels.
	ChannelRegistry = core.Channels
	// Target bundles an engine, registry, and mode.
	Target = core.Target
	// SimClock is the discrete-event simulated clock.
	SimClock = clock.Sim
	// Journal records fault and recovery actions.
	Journal = faults.Journal
	// SourceRule is a per-source classification rule.
	SourceRule = mab.SourceRule
	// Buddy is MyAlertBuddy.
	Buddy = mab.Service
	// Watchdog is the Master Daemon Controller.
	Watchdog = mdc.Controller
	// EndUser is the simulated human endpoint.
	EndUser = enduser.User
	// Receipt is one alert observed by an EndUser.
	Receipt = enduser.Receipt
	// Machine hosts the buddy and its client software.
	Machine = automation.Machine
	// IMService is the simulated instant-messaging cloud.
	IMService = im.Service
	// EmailService is the simulated email infrastructure.
	EmailService = email.Service
	// SMSCarrier is the simulated cellular carrier.
	SMSCarrier = sms.Carrier
	// Web is the simulated web the alert proxy polls.
	Web = websim.Web
	// Home is the simulated Aladdin deployment.
	Home = aladdin.Home
	// WISHServer is the location server and its alert service.
	WISHServer = wish.Server
	// WISHClient beacons signal measurements for one user.
	WISHClient = wish.Client
	// AccessPoint is one 802.11 AP at a known position.
	AccessPoint = wish.AP
	// Zone is a named rectangular region of the tracked map.
	Zone = wish.Zone
)

// Urgency levels.
const (
	UrgencyHigh     = alert.UrgencyHigh
	UrgencyCritical = alert.UrgencyCritical
)

// Communication types.
const (
	TypeIM    = addr.TypeIM
	TypeSMS   = addr.TypeSMS
	TypeEmail = addr.TypeEmail
)

// ExtractNative classifies an alert by its own keywords.
const ExtractNative = mab.ExtractNative

// NextAlertID returns a process-unique alert ID with the given prefix.
func NextAlertID(prefix string) string { return alert.NextID(prefix) }

// Figure4Mode returns the paper's Figure 4 sample delivery mode.
func Figure4Mode() *DeliveryMode { return dmode.Figure4() }

// IMThenEmailMode returns the canonical "IM with acknowledgement,
// fallback email" mode.
func IMThenEmailMode(imName, emailName string, ackTimeout ModeDuration) *DeliveryMode {
	return dmode.IMThenEmail(imName, emailName, time.Duration(ackTimeout))
}

// ParseDeliveryMode parses and validates a delivery-mode XML document.
func ParseDeliveryMode(data []byte) (*DeliveryMode, error) { return dmode.Unmarshal(data) }

// SMSGatewayAddress returns the email-style carrier gateway address
// for a phone number.
func SMSGatewayAddress(number string) string { return sms.GatewayAddress(number) }

// DirectSMSChannel returns a delivery channel that texts the carrier
// directly instead of riding the email-to-SMS gateway. Register it
// under TypeSMS via BuddyOptions.ConfigureChannels.
func DirectSMSChannel(carrier *SMSCarrier, fromNumber string) Channel {
	return core.NewSMSChannel(carrier, fromNumber)
}
