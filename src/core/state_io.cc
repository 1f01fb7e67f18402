#include "src/core/state_io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <vector>

#include "src/obs/metrics.h"

namespace ras {
namespace {

constexpr char kHeader[] = "ras-state v1";

std::vector<std::string> Split(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == sep) {
      fields.push_back(field);
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(field);
  return fields;
}

void AppendDecimal(std::string& out, uint64_t value) {
  char buf[20];
  char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out.append(buf, end);
}

// Strict unsigned parse: the whole field must be decimal digits that fit in
// 32 bits. No sign, space or trailing text.
bool ParseDecimal(std::string_view text, uint32_t* out) {
  uint32_t value = 0;
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

// A 0/1 flag field; anything else is corruption.
bool ParseFlag(std::string_view text, bool* out) {
  if (text != "0" && text != "1") {
    return false;
  }
  *out = text == "1";
  return true;
}

void AppendServerRecord(std::string& out, const ServerRecord& r) {
  out.append("server|");
  AppendServerId(out, r.server);
  out += '|';
  AppendReservationId(out, r.current);
  out += '|';
  AppendReservationId(out, r.target);
  out += '|';
  AppendReservationId(out, r.home);
  out += '|';
  out += r.elastic_loan ? '1' : '0';
  out += '|';
  AppendDecimal(out, static_cast<uint64_t>(r.unavailability));
  out += '|';
  out += r.has_containers ? '1' : '0';
}

// Strict double parse: the whole field must be a finite number.
bool TextToDouble(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

// A capacity or per-type RRU value: finite, non-negative, bounded.
bool ValidRru(double value) { return value >= 0.0 && value <= kMaxStateRru; }

constexpr unsigned kFlagBuffered = 1u;
constexpr unsigned kFlagSharedBuffer = 2u;
constexpr unsigned kFlagElastic = 4u;
constexpr unsigned kFlagStorage = 8u;
constexpr unsigned kFlagExternal = 16u;

}  // namespace

void AppendServerId(std::string& out, ServerId id) { AppendDecimal(out, id); }

void AppendReservationId(std::string& out, ReservationId id) {
  if (id == kUnassigned) {
    out += '-';
  } else {
    AppendDecimal(out, id);
  }
}

bool ParseServerId(std::string_view text, size_t num_servers, ServerId* id) {
  uint32_t value = 0;
  if (!ParseDecimal(text, &value) || value >= num_servers) {
    return false;
  }
  *id = value;
  return true;
}

bool ParseReservationId(std::string_view text, ReservationId* id) {
  if (text == "-") {
    *id = kUnassigned;
    return true;
  }
  uint32_t value = 0;
  if (!ParseDecimal(text, &value) || value == kUnassigned) {
    return false;
  }
  *id = value;
  return true;
}

std::string EscapeStateField(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '|') {
      out += "%7C";
    } else if (c == '\n') {
      out += "%0A";
    } else if (c == '%') {
      out += "%25";
    } else {
      out += c;
    }
  }
  return out;
}

std::string UnescapeStateField(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      std::string hex = s.substr(i + 1, 2);
      if (hex == "7C") {
        out += '|';
        i += 2;
        continue;
      }
      if (hex == "0A") {
        out += '\n';
        i += 2;
        continue;
      }
      if (hex == "25") {
        out += '%';
        i += 2;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

std::string SerializeReservationRecord(const ReservationSpec& spec) {
  std::ostringstream out;
  char buf[64];
  unsigned flags = (spec.needs_correlated_buffer ? kFlagBuffered : 0) |
                   (spec.is_shared_random_buffer ? kFlagSharedBuffer : 0) |
                   (spec.is_elastic ? kFlagElastic : 0) | (spec.is_storage ? kFlagStorage : 0) |
                   (spec.externally_managed ? kFlagExternal : 0);
  out << "reservation|" << spec.id << "|" << EscapeStateField(spec.name) << "|";
  std::snprintf(buf, sizeof(buf), "%.9g", spec.capacity_rru);
  out << buf << "|" << flags << "|";
  std::snprintf(buf, sizeof(buf), "%.9g|%.9g|%.9g|%.9g", spec.msb_spread_alpha,
                spec.rack_spread_alpha, spec.affinity_theta, spec.max_msb_fraction_hard);
  out << buf << "|" << EscapeStateField(spec.host_profile) << "|";
  for (size_t t = 0; t < spec.rru_per_type.size(); ++t) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", t == 0 ? "" : ",", spec.rru_per_type[t]);
    out << buf;
  }
  out << "|";
  bool first = true;
  for (const auto& [dc, share] : spec.dc_affinity) {
    std::snprintf(buf, sizeof(buf), "%s%u=%.9g", first ? "" : ",", dc, share);
    out << buf;
    first = false;
  }
  return out.str();
}

Status ParseReservationRecord(const std::string& line, ReservationSpec* spec) {
  std::vector<std::string> f = Split(line, '|');
  if (f.empty() || f[0] != "reservation") {
    return Status::InvalidArgument("not a reservation record");
  }
  if (f.size() != 12) {
    return Status::InvalidArgument("reservation record needs 12 fields");
  }
  ReservationSpec out;
  ReservationId id;
  if (!ParseReservationId(f[1], &id) || id == kUnassigned) {
    return Status::InvalidArgument("bad reservation id: " + f[1]);
  }
  out.id = id;
  out.name = UnescapeStateField(f[2]);
  if (!TextToDouble(f[3], &out.capacity_rru) || !ValidRru(out.capacity_rru)) {
    return Status::InvalidArgument("capacity out of range: " + f[3]);
  }
  unsigned flags = static_cast<unsigned>(std::strtoul(f[4].c_str(), nullptr, 10));
  out.needs_correlated_buffer = flags & kFlagBuffered;
  out.is_shared_random_buffer = flags & kFlagSharedBuffer;
  out.is_elastic = flags & kFlagElastic;
  out.is_storage = flags & kFlagStorage;
  out.externally_managed = flags & kFlagExternal;
  if (!TextToDouble(f[5], &out.msb_spread_alpha) || !TextToDouble(f[6], &out.rack_spread_alpha) ||
      !TextToDouble(f[7], &out.affinity_theta) ||
      !TextToDouble(f[8], &out.max_msb_fraction_hard)) {
    return Status::InvalidArgument("bad spread/affinity parameters");
  }
  out.host_profile = UnescapeStateField(f[9]);
  for (const std::string& v : Split(f[10], ',')) {
    if (v.empty()) {
      continue;
    }
    double value;
    if (!TextToDouble(v, &value) || !ValidRru(value)) {
      return Status::InvalidArgument("RRU value out of range: " + v);
    }
    out.rru_per_type.push_back(value);
  }
  if (!f[11].empty()) {
    for (const std::string& pair : Split(f[11], ',')) {
      std::vector<std::string> kv = Split(pair, '=');
      double share;
      if (kv.size() != 2 || !TextToDouble(kv[1], &share)) {
        return Status::InvalidArgument("bad affinity pair: " + pair);
      }
      out.dc_affinity[static_cast<DatacenterId>(std::strtoul(kv[0].c_str(), nullptr, 10))] = share;
    }
  }
  *spec = std::move(out);
  return Status::Ok();
}

std::string SerializeServerRecord(const ServerRecord& r) {
  std::string out;
  AppendServerRecord(out, r);
  return out;
}

Status ParseServerRecord(const std::string& line, size_t num_servers, ServerStateRecord* out) {
  std::vector<std::string> f = Split(line, '|');
  if (f.empty() || f[0] != "server") {
    return Status::InvalidArgument("not a server record");
  }
  if (f.size() != 8) {
    return Status::InvalidArgument("server record needs 8 fields");
  }
  ServerStateRecord s;
  if (!ParseServerId(f[1], num_servers, &s.id)) {
    return Status::InvalidArgument("server id out of range: " + f[1]);
  }
  if (!ParseReservationId(f[2], &s.current) || !ParseReservationId(f[3], &s.target) ||
      !ParseReservationId(f[4], &s.home)) {
    return Status::InvalidArgument("bad binding ids");
  }
  if (!ParseFlag(f[5], &s.elastic_loan)) {
    return Status::InvalidArgument("bad loan flag: " + f[5]);
  }
  uint32_t unavail = 0;
  if (!ParseDecimal(f[6], &unavail) ||
      unavail > static_cast<uint32_t>(Unavailability::kUnplannedHardware)) {
    return Status::InvalidArgument("bad unavailability code: " + f[6]);
  }
  s.unavailability = static_cast<Unavailability>(unavail);
  if (!ParseFlag(f[7], &s.has_containers)) {
    return Status::InvalidArgument("bad containers flag: " + f[7]);
  }
  *out = s;
  return Status::Ok();
}

void ApplyServerRecord(const ServerStateRecord& s, ResourceBroker& broker) {
  broker.SetCurrent(s.id, s.current);
  broker.SetTarget(s.id, s.target);
  broker.SetElasticLoan(s.id, s.home, s.elastic_loan);
  broker.SetUnavailability(s.id, s.unavailability);
  broker.SetHasContainers(s.id, s.has_containers);
}

void AppendRegionHeader(std::string& out, size_t num_servers,
                        const ReservationRegistry& registry) {
  out.append(kHeader).append("\n# servers=");
  AppendDecimal(out, num_servers);
  out += '\n';
  for (const ReservationSpec* spec : registry.All()) {
    out.append(SerializeReservationRecord(*spec)) += '\n';
  }
}

void AppendServerLine(std::string& out, const ServerRecord& r) {
  // Skip all-default records to keep snapshots proportional to usage.
  if (r.current == kUnassigned && r.target == kUnassigned && !r.elastic_loan &&
      r.unavailability == Unavailability::kNone && !r.has_containers) {
    return;
  }
  AppendServerRecord(out, r);
  out += '\n';
}

std::string SerializeRegionState(const ResourceBroker& broker,
                                 const ReservationRegistry& registry) {
  static obs::Counter& serializations = obs::MetricRegistry::Default().counter(
      "ras_state_serializations_total",
      "Whole-region state serializations (checkpoints and from-scratch digests).");
  serializations.Add();
  std::string out;
  // Room for every record at typical widths, so the common case never
  // reallocates; a wider record only costs a doubling.
  out.reserve(64 + 192 * registry.size() + 32 * broker.num_servers());
  AppendRegionHeader(out, broker.num_servers(), registry);
  for (ServerId id = 0; id < broker.num_servers(); ++id) {
    AppendServerLine(out, broker.record(id));
  }
  return out;
}

Status DeserializeRegionState(const std::string& text, ResourceBroker& broker,
                              ReservationRegistry& registry) {
  if (registry.size() != 0) {
    return Status::FailedPrecondition("restore requires an empty registry");
  }
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::InvalidArgument("missing ras-state header");
  }

  // Two-pass: validate everything — syntax, ranges, duplicates — before
  // mutating either the registry or the broker, so failure has no partial
  // effects.
  std::vector<ReservationSpec> specs;
  std::vector<ServerStateRecord> servers;
  std::set<ReservationId> seen_reservations;
  std::set<ServerId> seen_servers;
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    auto bad = [&line_no](const std::string& why) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " + why);
    };
    if (line.rfind("reservation|", 0) == 0) {
      ReservationSpec spec;
      Status parsed = ParseReservationRecord(line, &spec);
      if (!parsed.ok()) {
        return bad(parsed.message());
      }
      if (!seen_reservations.insert(spec.id).second) {
        return bad("duplicate reservation id " + std::to_string(spec.id));
      }
      specs.push_back(std::move(spec));
    } else if (line.rfind("server|", 0) == 0) {
      ServerStateRecord s;
      Status parsed = ParseServerRecord(line, broker.num_servers(), &s);
      if (!parsed.ok()) {
        return bad(parsed.message());
      }
      if (!seen_servers.insert(s.id).second) {
        return bad("duplicate server id " + std::to_string(s.id));
      }
      servers.push_back(s);
    } else {
      return bad("unknown record type: " + Split(line, '|')[0]);
    }
  }

  for (ReservationSpec& spec : specs) {
    Result<ReservationId> restored = registry.Restore(std::move(spec));
    if (!restored.ok()) {
      return restored.status();
    }
  }
  for (const ServerStateRecord& s : servers) {
    ApplyServerRecord(s, broker);
  }
  return Status::Ok();
}

}  // namespace ras
