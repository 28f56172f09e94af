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
// open with alert.AppendBinary's tag (0xA1); without a tag of its own an
// envelope would open with the uvarint length of its user, which is
// 0xA1 for a 161-byte user ID.
const envelopeTag = 0xA2

// encode renders the envelope payload in one buffer: envelopeTag,
// uvarint-length User and Category, uvarint Attempts, Round and Offset,
// Due as 8 bytes of little-endian Unix nanoseconds, then the alert's
// journal record (alert.AppendBinary) as the rest.
func (e *Entry) encode() ([]byte, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	dst := make([]byte, 0, 1+len(e.User)+len(e.Category)+5*binary.MaxVarintLen64+8+e.Alert.BinaryLen())
	dst = append(dst, envelopeTag)
	dst = binary.AppendUvarint(dst, uint64(len(e.User)))
	dst = append(dst, e.User...)
	dst = binary.AppendUvarint(dst, uint64(len(e.Category)))
	dst = append(dst, e.Category...)
	for _, n := range [...]int{e.Attempts, e.Round, e.Offset} {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Due.UnixNano()))
	return e.Alert.AppendBinary(dst)
}

var errEnvelope = errors.New("outbox: malformed envelope")

// decodeEntry parses an envelope payload produced by encode.
func decodeEntry(payload []byte) (*Entry, error) {
	if !IsEnvelope(payload) {
		return nil, errEnvelope
	}
	payload = payload[1:]
	e := &Entry{Alert: new(alert.Alert)}
	var text [2]string
	for i := range text {
		n, k := binary.Uvarint(payload)
		if k <= 0 || n > uint64(len(payload)-k) {
			return nil, errEnvelope
		}
		text[i], payload = string(payload[k:k+int(n)]), payload[k+int(n):]
	}
	e.User, e.Category = text[0], text[1]
	for _, f := range [...]*int{&e.Attempts, &e.Round, &e.Offset} {
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
	if err := e.Alert.UnmarshalBinary(payload[8:]); err != nil {
		return nil, fmt.Errorf("outbox: envelope alert: %w", err)
	}
	return e, e.validate()
}
