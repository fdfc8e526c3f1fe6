#include "tensor/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "util/check.h"
#include "util/fnv1a.h"
#include "util/rng.h"

namespace rebert::tensor {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void append_u32(std::string* out, std::uint32_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// A version-2 checkpoint around `body` with a valid checksum trailer: what
/// a crafted file looks like, since FNV-1a is no MAC.
std::string checksummed_checkpoint(const std::string& body) {
  std::string file = "RBTW";
  append_u32(&file, 2);
  file += body;
  const std::uint64_t checksum = util::fnv1a(body.data(), body.size());
  file.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return file;
}

/// Loading `path` must throw the located truncation error for `what`.
void expect_located_truncation(const std::string& path, const char* what) {
  Parameter w("w", Tensor({2}));
  try {
    load_parameters({&w}, path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("truncated checkpoint"), std::string::npos)
        << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
    EXPECT_NE(message.find("at offset"), std::string::npos) << message;
  }
}

TEST(SerializeTest, RoundTrip) {
  util::Rng rng(1);
  Parameter a("layer.weight", Tensor::randn({3, 4}, rng));
  Parameter b("layer.bias", Tensor::randn({4}, rng));
  const std::string path = temp_path("ckpt_roundtrip.bin");
  save_parameters({&a, &b}, path);

  Parameter a2("layer.weight", Tensor({3, 4}));
  Parameter b2("layer.bias", Tensor({4}));
  load_parameters({&a2, &b2}, path);
  EXPECT_TRUE(allclose(a.value, a2.value));
  EXPECT_TRUE(allclose(b.value, b2.value));
  std::remove(path.c_str());
}

TEST(SerializeTest, OrderIndependentByName) {
  util::Rng rng(2);
  Parameter a("x", Tensor::randn({2}, rng));
  Parameter b("y", Tensor::randn({2}, rng));
  const std::string path = temp_path("ckpt_order.bin");
  save_parameters({&a, &b}, path);
  Parameter a2("x", Tensor({2})), b2("y", Tensor({2}));
  load_parameters({&b2, &a2}, path);  // reversed order
  EXPECT_TRUE(allclose(a.value, a2.value));
  EXPECT_TRUE(allclose(b.value, b2.value));
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  util::Rng rng(3);
  Parameter a("w", Tensor::randn({2, 2}, rng));
  const std::string path = temp_path("ckpt_shape.bin");
  save_parameters({&a}, path);
  Parameter wrong("w", Tensor({4}));
  EXPECT_THROW(load_parameters({&wrong}, path), util::CheckError);
  std::remove(path.c_str());
}

TEST(SerializeTest, UnknownNameRejected) {
  util::Rng rng(4);
  Parameter a("w", Tensor::randn({2}, rng));
  const std::string path = temp_path("ckpt_name.bin");
  save_parameters({&a}, path);
  Parameter other("different", Tensor({2}));
  EXPECT_THROW(load_parameters({&other}, path), util::CheckError);
  std::remove(path.c_str());
}

TEST(SerializeTest, IncompleteModelCoverageRejected) {
  util::Rng rng(5);
  Parameter a("w", Tensor::randn({2}, rng));
  const std::string path = temp_path("ckpt_partial.bin");
  save_parameters({&a}, path);
  Parameter a2("w", Tensor({2})), extra("extra", Tensor({1}));
  EXPECT_THROW(load_parameters({&a2, &extra}, path), util::CheckError);
  std::remove(path.c_str());
}

TEST(SerializeTest, CorruptFileRejected) {
  const std::string path = temp_path("ckpt_corrupt.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint at all";
  }
  Parameter a("w", Tensor({2}));
  EXPECT_THROW(load_parameters({&a}, path), util::CheckError);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileRejected) {
  Parameter a("w", Tensor({2}));
  EXPECT_THROW(load_parameters({&a}, temp_path("does_not_exist.bin")),
               util::CheckError);
}

TEST(SerializeTest, TruncatedFileReportsOffsetAndSize) {
  // Regression: a checkpoint clipped mid-tensor must fail with a located
  // message ("at offset X of Y bytes"), not a bare end-of-file check.
  util::Rng rng(7);
  Parameter a("w", Tensor::randn({8, 8}, rng));
  const std::string path = temp_path("ckpt_located.bin");
  save_parameters({&a}, path);
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() - 16));
  out.close();
  Parameter a2("w", Tensor({8, 8}));
  try {
    load_parameters({&a2}, path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(contents.size() - 16)),
              std::string::npos)
        << what;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, SaveIsAtomicLeavesNoTempAndKeepsOldOnFailure) {
  // save_parameters stages through <path>.tmp.* and renames: after a
  // successful save only the checkpoint itself exists, and a failed save
  // (unwritable directory) leaves a previous checkpoint untouched.
  util::Rng rng(8);
  Parameter a("w", Tensor::randn({4}, rng));
  const std::string path = temp_path("ckpt_atomic.bin");
  save_parameters({&a}, path);
  Parameter a2("w", Tensor({4}));
  load_parameters({&a2}, path);  // loadable — no partial state
  EXPECT_TRUE(allclose(a.value, a2.value));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  Parameter unnamed("", Tensor({2}));
  EXPECT_THROW(save_parameters({&unnamed}, path), util::CheckError);
  Parameter a3("w", Tensor({4}));
  load_parameters({&a3}, path);  // old checkpoint survived the failed save
  EXPECT_TRUE(allclose(a.value, a3.value));
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncatedFileRejected) {
  util::Rng rng(6);
  Parameter a("w", Tensor::randn({16, 16}, rng));
  const std::string path = temp_path("ckpt_trunc.bin");
  save_parameters({&a}, path);
  // Truncate to half size.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  Parameter a2("w", Tensor({16, 16}));
  EXPECT_THROW(load_parameters({&a2}, path), util::CheckError);
  std::remove(path.c_str());
}

TEST(SerializeTest, V1CheckpointRejectedNamingTheVersion) {
  util::Rng rng(9);
  Parameter a("w", Tensor::randn({2}, rng));
  const std::string path = temp_path("ckpt_v1.bin");
  save_parameters({&a}, path);
  std::string bytes = slurp(path);
  bytes[4] = 1;  // u32 version field
  spit(path, bytes);
  Parameter a2("w", Tensor({2}));
  try {
    load_parameters({&a2}, path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, HugeNameLengthRejectedBeforeAllocating) {
  // A checksum-valid file declaring a 4 GiB name must fail on the bytes
  // left, not by sizing a buffer from the declared length.
  std::string body;
  append_u32(&body, 1);            // parameter count
  append_u32(&body, 0xFFFFFFFFu);  // name length
  body += "w";
  const std::string path = temp_path("ckpt_huge_name.bin");
  spit(path, checksummed_checkpoint(body));
  expect_located_truncation(path, "parameter name");
  std::remove(path.c_str());
}

TEST(SerializeTest, HugeRankRejectedBeforeAllocating) {
  // Same for a rank of 2^32 - 1 dims (16 GiB of shape).
  std::string body;
  append_u32(&body, 1);  // parameter count
  append_u32(&body, 1);  // name length
  body += "w";
  append_u32(&body, 0xFFFFFFFFu);  // rank
  append_u32(&body, 2);            // one real dim
  const std::string path = temp_path("ckpt_huge_rank.bin");
  spit(path, checksummed_checkpoint(body));
  expect_located_truncation(path, "tensor shape");
  std::remove(path.c_str());
}

TEST(SerializeTest, RepeatedParameterRejected) {
  // A file that names one parameter twice and omits another must not pass
  // the coverage check by counting the repeat.
  std::string body;
  append_u32(&body, 2);  // parameter count
  for (int copy = 0; copy < 2; ++copy) {
    append_u32(&body, 1);  // name length
    body += "a";
    append_u32(&body, 1);  // rank
    append_u32(&body, 1);  // dim
    const float value = 7.0f;
    body.append(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  const std::string path = temp_path("ckpt_repeat.bin");
  spit(path, checksummed_checkpoint(body));
  Parameter a("a", Tensor({1})), b("b", Tensor({1}));
  try {
    load_parameters({&a, &b}, path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("repeats parameter 'a'"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rebert::tensor
