#include "runtime/endpoint.h"

#include <arpa/inet.h>
#include <netdb.h>

#include <cstdio>
#include <cstring>

namespace paris::runtime {

std::string Endpoint::str() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), ":%u", static_cast<unsigned>(port));
  return host + buf;
}

bool parse_endpoint(const std::string& text, Endpoint* out, std::string* err) {
  const auto set_err = [&](const std::string& what) {
    if (err != nullptr) *err = "bad endpoint \"" + text + "\": " + what;
    return false;
  };
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) return set_err("expected host:port");
  const std::string host = text.substr(0, colon);
  const std::string port_s = text.substr(colon + 1);
  if (host.empty()) return set_err("empty host");
  if (port_s.empty()) return set_err("empty port");
  // Hostnames/IPv4 only: a second ':' means someone passed an IPv6 literal.
  if (host.find(':') != std::string::npos) return set_err("IPv6 literals are not supported");
  std::uint64_t port = 0;
  for (char c : port_s) {
    if (c < '0' || c > '9') return set_err("port is not a number");
    port = port * 10 + static_cast<std::uint64_t>(c - '0');
    if (port > 65535) return set_err("port out of range [1, 65535]");
  }
  if (port == 0) return set_err("port out of range [1, 65535]");
  for (char c : host) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '_';
    if (!ok) return set_err("host contains invalid characters");
  }
  out->host = host;
  out->port = static_cast<std::uint16_t>(port);
  return true;
}

bool parse_host_list(const std::string& text, std::vector<Endpoint>* out, std::string* err) {
  out->clear();
  if (text.empty()) {
    if (err != nullptr) *err = "empty host list";
    return false;
  }
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    Endpoint ep;
    if (!parse_endpoint(text.substr(begin, end - begin), &ep, err)) return false;
    for (const Endpoint& prev : *out) {
      if (prev == ep) {
        if (err != nullptr)
          *err = "duplicate endpoint \"" + ep.str() + "\" — two ranks cannot share a listen address";
        return false;
      }
    }
    out->push_back(std::move(ep));
    if (end == text.size()) break;
    begin = end + 1;
  }
  return true;
}

bool validate_host_list(const std::vector<Endpoint>& hosts, std::uint32_t nprocs,
                        std::string* err) {
  if (hosts.size() != nprocs) {
    if (err != nullptr) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "host list names %zu endpoints but the cluster runs %u processes",
                    hosts.size(), nprocs);
      *err = buf;
    }
    return false;
  }
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (hosts[i].port == 0) {
      if (err != nullptr) *err = "endpoint \"" + hosts[i].str() + "\" has port 0";
      return false;
    }
    for (std::size_t j = i + 1; j < hosts.size(); ++j) {
      if (hosts[i] == hosts[j]) {
        if (err != nullptr)
          *err = "duplicate endpoint \"" + hosts[i].str() +
                 "\" — two ranks cannot share a listen address";
        return false;
      }
    }
  }
  return true;
}

std::string format_host_list(const std::vector<Endpoint>& hosts) {
  std::string out;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (i != 0) out += ',';
    out += hosts[i].str();
  }
  return out;
}

std::vector<Endpoint> loopback_host_list(std::uint32_t nprocs, std::uint16_t first_port) {
  std::vector<Endpoint> hosts;
  hosts.reserve(nprocs);
  for (std::uint32_t r = 0; r < nprocs; ++r)
    hosts.push_back(Endpoint{"127.0.0.1", static_cast<std::uint16_t>(first_port + r)});
  return hosts;
}

bool resolve_ipv4(const Endpoint& ep, sockaddr_in* out, std::string* err) {
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &out->sin_addr) == 1) return true;
  addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = getaddrinfo(ep.host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    if (err != nullptr)
      *err = "cannot resolve host \"" + ep.host + "\": " + gai_strerror(rc);
    if (res != nullptr) freeaddrinfo(res);
    return false;
  }
  out->sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  freeaddrinfo(res);
  return true;
}

}  // namespace paris::runtime
