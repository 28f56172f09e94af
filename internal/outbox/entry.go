package outbox

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"simba/internal/alert"
)

// keySep joins the envelope key's fields (user, alert dedup key, round).
// It is the same control character the hub uses in its WAL keys, which
// no user ID contains, so an envelope's key extends the key of the
// alert record it supersedes.
const keySep = "\x1f"

// Entry is one guaranteed-tier delivery the outbox owes the user: the
// routed alert plus everything a later incarnation needs to resume the
// delivery — the tenant, the routing category (which selects the
// subscribed delivery mode), how much work has already been spent, the
// escalation offset, and when the next redelivery round is due.
type Entry struct {
	// User is the tenant the alert is owed to.
	User string
	// Category is the routing category the tenant's pipeline assigned;
	// redelivery resolves the subscribed delivery mode through it.
	Category string
	// Alert is the routed alert. Its Created timestamp is preserved, so
	// redelivered duplicates stay detectable downstream (the paper's
	// timestamp dedup contract).
	Alert *alert.Alert
	// Attempts counts the in-memory delivery attempts spent before the
	// envelope was handed to the outbox.
	Attempts int
	// Round counts completed (failed) outbox redelivery rounds.
	Round int
	// Offset is the escalation state: the index of the first delivery-
	// mode block redelivery should try. It advances after every
	// EscalateEvery exhausted rounds — the paper's block fallback
	// generalized across process restarts — and is clamped to the
	// mode's last block by the delivery callback.
	Offset int
	// Due is when the next redelivery round fires.
	Due time.Time
}

// validate checks the entry is persistable.
func (e *Entry) validate() error {
	switch {
	case e == nil:
		return errors.New("outbox: nil entry")
	case e.User == "":
		return errors.New("outbox: entry missing user")
	case strings.ContainsAny(e.User, keySep+"\n"):
		return fmt.Errorf("outbox: user %q contains reserved separator", e.User)
	case strings.ContainsAny(e.Category, "\n"):
		return fmt.Errorf("outbox: category %q contains newline", e.Category)
	case e.Alert == nil:
		return errors.New("outbox: entry missing alert")
	case e.Attempts < 0 || e.Round < 0 || e.Offset < 0:
		return errors.New("outbox: negative attempt state")
	}
	return e.Alert.Validate()
}

// dedupKey identifies the alert the entry redelivers, independent of
// its round: re-persisted rounds of the same alert collapse under it.
func (e *Entry) dedupKey() string { return e.User + keySep + e.Alert.DedupKey() }

// roundKey stamps an alert's journal key with a redelivery round.
func roundKey(dedup string, round int) string { return dedup + keySep + strconv.Itoa(round) }

// splitKey parses a journal key into the alert identity and round.
func splitKey(key string) (dedup string, round int, err error) {
	i := strings.LastIndex(key, keySep)
	if i < 0 {
		return "", 0, fmt.Errorf("outbox: malformed key %q", key)
	}
	round, err = strconv.Atoi(key[i+1:])
	if err != nil || round < 0 {
		return "", 0, fmt.Errorf("outbox: malformed round in key %q", key)
	}
	return key[:i], round, nil
}

// envelopeTag opens every envelope payload. The hub's own WAL records
// open with alert.AppendRecord's tag (0xA1); without a tag of its own an
// envelope would open with the uvarint length of its category, which is
// 0xA1 for a 161-byte category.
const envelopeTag = 0xA2

// encode renders the envelope payload in one buffer: envelopeTag,
// uvarint-length Category, uvarint Attempts and Offset, Due as 8 bytes
// of little-endian Unix nanoseconds, then the alert's journal record
// (alert.AppendRecord) as the rest. User and Round are not written: the
// envelope's key, user␟dedupKey␟round, holds both, and decodeEntry reads
// them back from it.
func (e *Entry) encode() ([]byte, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	dst := make([]byte, 0, 1+len(e.Category)+3*binary.MaxVarintLen64+8+e.Alert.RecordLen())
	dst = append(dst, envelopeTag)
	dst = binary.AppendUvarint(dst, uint64(len(e.Category)))
	dst = append(dst, e.Category...)
	dst = binary.AppendUvarint(dst, uint64(e.Attempts))
	dst = binary.AppendUvarint(dst, uint64(e.Offset))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Due.UnixNano()))
	return e.Alert.AppendRecord(dst)
}

var errEnvelope = errors.New("outbox: malformed envelope")

// decodeEntry parses an envelope payload produced by encode, journaled
// under the key splitKey parsed into dedup and round.
func decodeEntry(dedup string, round int, payload []byte) (*Entry, error) {
	user, alertKey, ok := strings.Cut(dedup, keySep)
	if !ok || !IsEnvelope(payload) {
		return nil, errEnvelope
	}
	payload = payload[1:]
	e := &Entry{User: user, Round: round, Alert: new(alert.Alert)}
	n, k := binary.Uvarint(payload)
	if k <= 0 || n > uint64(len(payload)-k) {
		return nil, errEnvelope
	}
	e.Category, payload = string(payload[k:k+int(n)]), payload[k+int(n):]
	for _, f := range [...]*int{&e.Attempts, &e.Offset} {
		n, k := binary.Uvarint(payload)
		if k <= 0 {
			return nil, errEnvelope
		}
		*f, payload = int(n), payload[k:]
	}
	if len(payload) < 8 {
		return nil, errEnvelope
	}
	e.Due = time.Unix(0, int64(binary.LittleEndian.Uint64(payload)))
	if err := e.Alert.UnmarshalRecord(payload[8:], alertKey); err != nil {
		return nil, fmt.Errorf("outbox: envelope alert: %w", err)
	}
	return e, e.validate()
}
