#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>

#include "common/units.h"
#include "pmem/pmem_device.h"

namespace vedb::pmem {
namespace {

TEST(PmemDeviceTest, WriteReadRoundTrip) {
  PmemDevice dev(4096, /*ddio_enabled=*/false);
  ASSERT_TRUE(dev.WriteFromRemote(100, Slice("hello")).ok());
  char buf[5];
  ASSERT_TRUE(dev.Read(100, 5, buf).ok());
  EXPECT_EQ(std::string(buf, 5), "hello");
}

TEST(PmemDeviceTest, OutOfBoundsRejected) {
  PmemDevice dev(128, false);
  EXPECT_TRUE(dev.WriteFromRemote(120, Slice("0123456789")).IsInvalidArgument());
  char buf[64];
  EXPECT_TRUE(dev.Read(100, 64, buf).IsInvalidArgument());
}

TEST(PmemDeviceTest, UnflushedDataLostOnCrash) {
  PmemDevice dev(4096, /*ddio_enabled=*/false);
  ASSERT_TRUE(dev.WriteFromRemote(0, Slice("precious")).ok());
  EXPECT_EQ(dev.PendingRangeCount(), 1u);
  dev.Crash();
  char buf[8];
  ASSERT_TRUE(dev.Read(0, 8, buf).ok());
  EXPECT_NE(std::string(buf, 8), "precious");
}

TEST(PmemDeviceTest, RdmaReadFlushPersistsWithDdioOff) {
  PmemDevice dev(4096, /*ddio_enabled=*/false);
  ASSERT_TRUE(dev.WriteFromRemote(0, Slice("precious")).ok());
  dev.FlushViaRdmaRead();
  EXPECT_EQ(dev.PendingRangeCount(), 0u);
  dev.Crash();
  char buf[8];
  ASSERT_TRUE(dev.Read(0, 8, buf).ok());
  EXPECT_EQ(std::string(buf, 8), "precious");
}

TEST(PmemDeviceTest, RdmaReadDoesNotFlushWithDdioOn) {
  // The configuration the paper rejects: with DDIO enabled, inbound writes
  // sit in the LLC and an RDMA READ does not push them to the controller.
  PmemDevice dev(4096, /*ddio_enabled=*/true);
  ASSERT_TRUE(dev.WriteFromRemote(0, Slice("precious")).ok());
  dev.FlushViaRdmaRead();
  EXPECT_EQ(dev.PendingRangeCount(), 1u);
  dev.Crash();
  char buf[8];
  ASSERT_TRUE(dev.Read(0, 8, buf).ok());
  EXPECT_NE(std::string(buf, 8), "precious");
}

TEST(PmemDeviceTest, LocalWritesPersistImmediately) {
  PmemDevice dev(4096, true);
  ASSERT_TRUE(dev.WriteLocal(10, Slice("server-side")).ok());
  EXPECT_EQ(dev.PendingRangeCount(), 0u);
  dev.Crash();
  char buf[11];
  ASSERT_TRUE(dev.Read(10, 11, buf).ok());
  EXPECT_EQ(std::string(buf, 11), "server-side");
}

TEST(PmemDeviceTest, PendingRangesCoalesce) {
  PmemDevice dev(4096, false);
  ASSERT_TRUE(dev.WriteFromRemote(0, Slice("aaaa")).ok());
  ASSERT_TRUE(dev.WriteFromRemote(4, Slice("bbbb")).ok());   // adjacent
  ASSERT_TRUE(dev.WriteFromRemote(2, Slice("cc")).ok());     // overlapping
  EXPECT_EQ(dev.PendingRangeCount(), 1u);
  ASSERT_TRUE(dev.WriteFromRemote(100, Slice("dd")).ok());   // disjoint
  EXPECT_EQ(dev.PendingRangeCount(), 2u);
}

TEST(PmemDeviceTest, CrashOnlyScramblesPendingRanges) {
  PmemDevice dev(4096, false);
  ASSERT_TRUE(dev.WriteFromRemote(0, Slice("flushed!")).ok());
  dev.FlushViaRdmaRead();
  ASSERT_TRUE(dev.WriteFromRemote(100, Slice("unflushed")).ok());
  dev.Crash();
  char buf[9];
  ASSERT_TRUE(dev.Read(0, 8, buf).ok());
  EXPECT_EQ(std::string(buf, 8), "flushed!");
  ASSERT_TRUE(dev.Read(100, 9, buf).ok());
  EXPECT_NE(std::string(buf, 9), "unflushed");
}

TEST(PmemDeviceTest, PersistAllDrainsEverything) {
  PmemDevice dev(4096, true);  // even with DDIO on, explicit persist works
  ASSERT_TRUE(dev.WriteFromRemote(0, Slice("x")).ok());
  ASSERT_TRUE(dev.WriteFromRemote(50, Slice("y")).ok());
  dev.PersistAll();
  EXPECT_EQ(dev.PendingRangeCount(), 0u);
}

// Resident set size of this process (statm's second field, in pages).
uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(PmemDeviceTest, MemoryIsCommittedOnlyWhereWritten) {
  // A device reserves its whole capacity but commits only written pages,
  // so large simulated PMem costs host memory in proportion to its use.
  constexpr uint64_t kCapacity = 512 * kMiB;
  const std::string payload(4096, 'x');
  const uint64_t offsets[] = {0, 100 * kMiB + 17, 256 * kMiB,
                              kCapacity - payload.size()};
  const uint64_t before = ResidentBytes();
  PmemDevice dev(kCapacity, /*ddio_enabled=*/false);
  for (uint64_t offset : offsets) {
    ASSERT_TRUE(dev.WriteLocal(offset, Slice(payload)).ok());
  }
  // Every byte reads back as written, zero everywhere else.
  std::string chunk(kMiB, '\1');
  std::string expected(kMiB, '\0');
  for (uint64_t base = 0; base < kCapacity; base += kMiB) {
    std::fill(expected.begin(), expected.end(), '\0');
    for (uint64_t offset : offsets) {
      const uint64_t lo = std::max(offset, base);
      const uint64_t hi = std::min(offset + payload.size(), base + kMiB);
      if (lo < hi) std::fill_n(expected.begin() + (lo - base), hi - lo, 'x');
    }
    ASSERT_TRUE(dev.Read(base, kMiB, chunk.data()).ok());
    ASSERT_EQ(std::memcmp(chunk.data(), expected.data(), kMiB), 0)
        << "MiB at offset " << base;
  }
  EXPECT_LT(ResidentBytes(), before + 32 * kMiB);
}

}  // namespace
}  // namespace vedb::pmem
