#pragma once
// Cross-host addressing for the socket runtime (DESIGN §10). An Endpoint is
// where one rank of the process mesh listens; a host list names every rank's
// endpoint, so the same binary deploys across machines. loopback_host_list()
// is the ONLY place a port is derived from a rank — the launcher uses it for
// its default list, tests and benches for their own port blocks.

#include <netinet/in.h>

#include <cstdint>
#include <string>
#include <vector>

namespace paris::runtime {

struct Endpoint {
  std::string host;         ///< IPv4 literal or resolvable hostname
  std::uint16_t port = 0;

  bool operator==(const Endpoint& o) const { return host == o.host && port == o.port; }
  bool operator!=(const Endpoint& o) const { return !(*this == o); }

  /// "host:port"
  std::string str() const;
};

/// Parses "host:port". Accepts IPv4 literals and hostnames; the port must be
/// in [1, 65535]. Returns false with *err set on junk.
bool parse_endpoint(const std::string& text, Endpoint* out, std::string* err);

/// Parses a comma-separated host list "h1:p1,h2:p2,...". Rejects empty
/// entries and duplicate endpoints (two ranks cannot share a listen
/// address). Returns false with *err set on the first bad entry.
bool parse_host_list(const std::string& text, std::vector<Endpoint>* out, std::string* err);

/// Rank r's endpoint must exist and be unique; nprocs > 0 must equal the
/// list length. Centralizes the count-mismatch check every launcher flag
/// path needs.
bool validate_host_list(const std::vector<Endpoint>& hosts, std::uint32_t nprocs,
                        std::string* err);

/// "h1:p1,h2:p2,..." — the inverse of parse_host_list.
std::string format_host_list(const std::vector<Endpoint>& hosts);

/// First port of the launcher's default host list, used when no explicit
/// list is given: rank r listens on 127.0.0.1:(kDefaultLoopbackPort + r).
inline constexpr std::uint16_t kDefaultLoopbackPort = 7421;

/// Rank r listens on 127.0.0.1:(first_port + r). The only port + rank site.
std::vector<Endpoint> loopback_host_list(std::uint32_t nprocs, std::uint16_t first_port);

/// Resolves to an IPv4 socket address: inet_pton for dotted quads, else a
/// getaddrinfo lookup (AF_INET). Returns false with *err set when the host
/// does not resolve.
bool resolve_ipv4(const Endpoint& ep, sockaddr_in* out, std::string* err);

}  // namespace paris::runtime
