// Region control-plane state persistence.
//
// The production Resource Broker is highly-available replicated storage; RAS
// itself is stateless between solves apart from the broker bindings and the
// capacity-request database. This module serializes exactly that pair —
// reservation specs and per-server bindings — to a line-based text format,
// so a control plane can restart (or an operator can snapshot/diff a region)
// without losing the continuously-optimized assignment.
//
// Format (one record per line, '|'-separated fields, '#' comments):
//   ras-state v1
//   reservation|<id>|<name>|<capacity>|<flags>|<host_profile>|<rru csv>|<affinity csv>
//   server|<id>|<current>|<target>|<home>|<loan>|<unavail>|<has_containers>
// Hardware/topology are NOT serialized: they are regenerable from the fleet
// seed and are validated by server-count on load.
//
// The per-record encoders/parsers are exposed because the write-ahead
// journal (src/journal) reuses them as its payload codec: a journal
// reservation record is exactly one "reservation|..." line, a server delta
// exactly one "server|..." line. Parsing is strict — malformed numbers,
// out-of-range RRU/capacity values, and duplicate ids are rejected with a
// precise error, and DeserializeRegionState has no partial effects on
// failure.

#ifndef RAS_SRC_CORE_STATE_IO_H_
#define RAS_SRC_CORE_STATE_IO_H_

#include <string>
#include <string_view>

#include "src/broker/resource_broker.h"
#include "src/core/reservation.h"

namespace ras {

// Serializes registry + broker bindings: AppendRegionHeader, then
// AppendServerLine for every server in id order.
std::string SerializeRegionState(const ResourceBroker& broker,
                                 const ReservationRegistry& registry);

// The two pieces of that text, for a digest that re-serializes only what
// changed: the header, server count and reservation lines; and one server's
// line, newline included, or nothing for an all-default record.
void AppendRegionHeader(std::string& out, size_t num_servers,
                        const ReservationRegistry& registry);
void AppendServerLine(std::string& out, const ServerRecord& record);

// Restores into an empty registry and a freshly-constructed broker over the
// same topology. Fails without partial effects on malformed input, duplicate
// reservation/server ids, out-of-range values, or a server-count mismatch;
// errors name the offending line.
Status DeserializeRegionState(const std::string& text, ResourceBroker& broker,
                              ReservationRegistry& registry);

// --- Per-record codec (shared with src/journal) ---

// '|' / newline / '%' escaping used for free-form text fields.
std::string EscapeStateField(const std::string& s);
std::string UnescapeStateField(const std::string& s);

// One "reservation|..." line (no trailing newline) and its strict parser.
// The parser validates capacity and RRU values: they must be finite,
// non-negative, and below kMaxStateRru.
std::string SerializeReservationRecord(const ReservationSpec& spec);
Status ParseReservationRecord(const std::string& line, ReservationSpec* spec);

// Upper bound accepted for any capacity / per-type RRU value on load. A
// region holds well under a million servers of bounded per-server value;
// anything past this is corruption, not demand.
inline constexpr double kMaxStateRru = 1e12;

// The durable fields of one server record, decoupled from the broker's
// in-memory ServerRecord (which also carries a version counter).
struct ServerStateRecord {
  ServerId id = kInvalidServer;
  ReservationId current = kUnassigned;
  ReservationId target = kUnassigned;
  ReservationId home = kUnassigned;
  bool elastic_loan = false;
  Unavailability unavailability = Unavailability::kNone;
  bool has_containers = false;
};

// Id fields, shared with the journal's target intent. A server id is an
// unsigned decimal below `num_servers`; a reservation id is "-" for
// kUnassigned or an unsigned decimal below kUnassigned. The parsers accept
// nothing else: no sign, space, overflow or trailing text.
void AppendServerId(std::string& out, ServerId id);
void AppendReservationId(std::string& out, ReservationId id);
bool ParseServerId(std::string_view text, size_t num_servers, ServerId* id);
bool ParseReservationId(std::string_view text, ReservationId* id);

// One "server|..." line (no trailing newline) and its strict parser: each
// flag must be 0 or 1 and the unavailability code a whole in-range integer.
// `num_servers` bounds the id; pass the broker's server count.
std::string SerializeServerRecord(const ServerRecord& record);
Status ParseServerRecord(const std::string& line, size_t num_servers, ServerStateRecord* out);

// Writes every durable field of `s` into the broker record (used by restore
// and by journal replay).
void ApplyServerRecord(const ServerStateRecord& s, ResourceBroker& broker);

}  // namespace ras

#endif  // RAS_SRC_CORE_STATE_IO_H_
