// Endpoint/host-list parsing tests: the cross-host addressing API that
// replaced base_port + rank arithmetic (DESIGN §10). Covers IPv4 literals,
// hostnames, bad ports, duplicate endpoints, count mismatch vs --processes,
// and the loopback expansion behind the launcher's default host list.

#include <gtest/gtest.h>

#include "runtime/endpoint.h"

namespace paris::runtime {
namespace {

TEST(Endpoint, ParsesIpv4Literal) {
  Endpoint ep;
  std::string err;
  ASSERT_TRUE(parse_endpoint("127.0.0.2:7421", &ep, &err)) << err;
  EXPECT_EQ(ep.host, "127.0.0.2");
  EXPECT_EQ(ep.port, 7421);
  EXPECT_EQ(ep.str(), "127.0.0.2:7421");
}

TEST(Endpoint, ParsesHostname) {
  Endpoint ep;
  std::string err;
  ASSERT_TRUE(parse_endpoint("dc-east.example.com:9000", &ep, &err)) << err;
  EXPECT_EQ(ep.host, "dc-east.example.com");
  EXPECT_EQ(ep.port, 9000);
}

TEST(Endpoint, RejectsJunk) {
  Endpoint ep;
  std::string err;
  EXPECT_FALSE(parse_endpoint("nohostport", &ep, &err));
  EXPECT_NE(err.find("expected host:port"), std::string::npos);
  EXPECT_FALSE(parse_endpoint(":7421", &ep, &err));
  EXPECT_FALSE(parse_endpoint("host:", &ep, &err));
  EXPECT_FALSE(parse_endpoint("host:abc", &ep, &err));
  EXPECT_FALSE(parse_endpoint("host:0", &ep, &err));
  EXPECT_FALSE(parse_endpoint("host:65536", &ep, &err));
  EXPECT_NE(err.find("out of range"), std::string::npos);
  EXPECT_FALSE(parse_endpoint("::1:7421", &ep, &err));
  EXPECT_NE(err.find("IPv6"), std::string::npos);
  EXPECT_FALSE(parse_endpoint("bad host:7421", &ep, &err));
}

TEST(Endpoint, ParsesHostList) {
  std::vector<Endpoint> hosts;
  std::string err;
  ASSERT_TRUE(parse_host_list("127.0.0.1:7421,127.0.0.2:7421,box3:8000", &hosts, &err)) << err;
  ASSERT_EQ(hosts.size(), 3u);
  EXPECT_EQ(hosts[0].str(), "127.0.0.1:7421");
  EXPECT_EQ(hosts[1].str(), "127.0.0.2:7421");
  EXPECT_EQ(hosts[2].str(), "box3:8000");
  EXPECT_EQ(format_host_list(hosts), "127.0.0.1:7421,127.0.0.2:7421,box3:8000");
}

TEST(Endpoint, HostListRejectsDuplicates) {
  std::vector<Endpoint> hosts;
  std::string err;
  EXPECT_FALSE(parse_host_list("h:1,h:1", &hosts, &err));
  EXPECT_NE(err.find("duplicate endpoint"), std::string::npos);
  // Same host, different ports is fine (two ranks on one box).
  ASSERT_TRUE(parse_host_list("h:1,h:2", &hosts, &err)) << err;
}

TEST(Endpoint, HostListRejectsEmptyEntries) {
  std::vector<Endpoint> hosts;
  std::string err;
  EXPECT_FALSE(parse_host_list("", &hosts, &err));
  EXPECT_FALSE(parse_host_list("h:1,,h:2", &hosts, &err));
  EXPECT_FALSE(parse_host_list("h:1,", &hosts, &err));
}

TEST(Endpoint, ValidateChecksCountAgainstProcesses) {
  std::vector<Endpoint> hosts = {{"a", 1}, {"b", 2}};
  std::string err;
  EXPECT_TRUE(validate_host_list(hosts, 2, &err)) << err;
  EXPECT_FALSE(validate_host_list(hosts, 3, &err));
  EXPECT_NE(err.find("2 endpoints"), std::string::npos);
  EXPECT_NE(err.find("3 processes"), std::string::npos);
}

TEST(Endpoint, LoopbackExpansionMatchesLegacyArithmetic) {
  const auto hosts = loopback_host_list(3, 7421);
  ASSERT_EQ(hosts.size(), 3u);
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(hosts[r].host, "127.0.0.1");
    EXPECT_EQ(hosts[r].port, 7421 + r);
  }
  std::string err;
  EXPECT_TRUE(validate_host_list(hosts, 3, &err)) << err;
}

TEST(Endpoint, ResolvesIpv4Literal) {
  sockaddr_in sa;
  std::string err;
  ASSERT_TRUE(resolve_ipv4({"127.0.0.2", 7421}, &sa, &err)) << err;
  EXPECT_EQ(ntohs(sa.sin_port), 7421);
  EXPECT_EQ(ntohl(sa.sin_addr.s_addr), 0x7f000002u);
  EXPECT_FALSE(resolve_ipv4({"no.such.host.invalid", 1}, &sa, &err));
  EXPECT_NE(err.find("cannot resolve"), std::string::npos);
}

}  // namespace
}  // namespace paris::runtime
