#include "src/support/leb128.h"

namespace nsf {

void WriteVarU32(std::vector<uint8_t>& out, uint32_t value) {
  do {
    uint8_t byte = value & 0x7f;
    value >>= 7;
    if (value != 0) {
      byte |= 0x80;
    }
    out.push_back(byte);
  } while (value != 0);
}

void WriteVarU64(std::vector<uint8_t>& out, uint64_t value) {
  do {
    uint8_t byte = value & 0x7f;
    value >>= 7;
    if (value != 0) {
      byte |= 0x80;
    }
    out.push_back(byte);
  } while (value != 0);
}

void WriteVarS32(std::vector<uint8_t>& out, int32_t value) {
  bool more = true;
  while (more) {
    uint8_t byte = value & 0x7f;
    value >>= 7;  // arithmetic shift
    if ((value == 0 && (byte & 0x40) == 0) || (value == -1 && (byte & 0x40) != 0)) {
      more = false;
    } else {
      byte |= 0x80;
    }
    out.push_back(byte);
  }
}

void WriteVarS64(std::vector<uint8_t>& out, int64_t value) {
  bool more = true;
  while (more) {
    uint8_t byte = value & 0x7f;
    value >>= 7;
    if ((value == 0 && (byte & 0x40) == 0) || (value == -1 && (byte & 0x40) != 0)) {
      more = false;
    } else {
      byte |= 0x80;
    }
    out.push_back(byte);
  }
}

void WriteFixedU32(std::vector<uint8_t>& out, uint32_t value) {
  for (int i = 0; i < 4; i++) {
    out.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void WriteFixedU64(std::vector<uint8_t>& out, uint64_t value) {
  for (int i = 0; i < 8; i++) {
    out.push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

void WriteF64(std::vector<uint8_t>& out, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  WriteFixedU64(out, bits);
}

void WriteString(std::vector<uint8_t>& out, const std::string& s) {
  WriteVarU32(out, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void WriteBytes(std::vector<uint8_t>& out, const std::vector<uint8_t>& bytes) {
  WriteVarU32(out, static_cast<uint32_t>(bytes.size()));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

namespace {

// Whether the bits of a signed LEB128's last allowed byte under `mask`, its
// sign bit and the bits beyond the type's width, all agree: anything else is
// a malformed encoding.
bool SignExtends(uint8_t byte, uint8_t mask) {
  return (byte & mask) == 0 || (byte & mask) == mask;
}

}  // namespace

uint8_t ByteReader::PeekByte() {
  if (pos_ >= size_) {
    Fail();
    return 0;
  }
  return data_[pos_];
}

uint32_t ByteReader::ReadVarU32Slow() {
  uint32_t result = 0;
  int shift = 0;
  for (int i = 0; i < 5; i++) {
    uint8_t byte = ReadByte();
    if (!ok_) {
      return 0;
    }
    result |= static_cast<uint32_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical bits beyond 32.
      if (i == 4 && (byte & 0xf0) != 0) {
        Fail();
      }
      return result;
    }
    shift += 7;
  }
  Fail();
  return 0;
}

uint64_t ByteReader::ReadVarU64() {
  uint64_t result = 0;
  int shift = 0;
  for (int i = 0; i < 10; i++) {
    uint8_t byte = ReadByte();
    if (!ok_) {
      return 0;
    }
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical bits beyond 64.
      if (i == 9 && (byte & 0x7e) != 0) {
        Fail();
      }
      return result;
    }
    shift += 7;
  }
  Fail();
  return 0;
}

int32_t ByteReader::ReadVarS32Slow() {
  int32_t result = 0;
  int shift = 0;
  for (int i = 0; i < 5; i++) {
    uint8_t byte = ReadByte();
    if (!ok_) {
      return 0;
    }
    result |= static_cast<int32_t>(static_cast<uint32_t>(byte & 0x7f) << shift);
    shift += 7;
    if ((byte & 0x80) == 0) {
      if (i == 4 && !SignExtends(byte, 0x78)) {
        Fail();
      }
      if (shift < 32 && (byte & 0x40) != 0) {
        result |= static_cast<int32_t>(~0u << shift);
      }
      return result;
    }
  }
  Fail();
  return 0;
}

int64_t ByteReader::ReadVarS64Slow() {
  int64_t result = 0;
  int shift = 0;
  for (int i = 0; i < 10; i++) {
    uint8_t byte = ReadByte();
    if (!ok_) {
      return 0;
    }
    result |= static_cast<int64_t>(static_cast<uint64_t>(byte & 0x7f) << shift);
    shift += 7;
    if ((byte & 0x80) == 0) {
      if (i == 9 && !SignExtends(byte, 0x7f)) {
        Fail();
      }
      if (shift < 64 && (byte & 0x40) != 0) {
        result |= static_cast<int64_t>(~uint64_t{0} << shift);
      }
      return result;
    }
  }
  Fail();
  return 0;
}

int64_t ByteReader::ReadVarS33() {
  int64_t result = 0;
  int shift = 0;
  for (int i = 0; i < 5; i++) {
    uint8_t byte = ReadByte();
    if (!ok_) {
      return 0;
    }
    result |= static_cast<int64_t>(static_cast<uint64_t>(byte & 0x7f) << shift);
    shift += 7;
    if ((byte & 0x80) == 0) {
      if (i == 4 && !SignExtends(byte, 0x70)) {
        Fail();
      }
      if (shift < 64 && (byte & 0x40) != 0) {
        result |= static_cast<int64_t>(~uint64_t{0} << shift);
      }
      return result;
    }
  }
  Fail();
  return 0;
}

uint32_t ByteReader::ReadFixedU32() {
  if (pos_ + 4 > size_) {
    Fail();
    return 0;
  }
  uint32_t v;
  std::memcpy(&v, data_ + pos_, 4);
  pos_ += 4;
  return v;
}

uint64_t ByteReader::ReadFixedU64() {
  if (pos_ + 8 > size_) {
    Fail();
    return 0;
  }
  uint64_t v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}

float ByteReader::ReadF32() {
  uint32_t bits = ReadFixedU32();
  float f;
  std::memcpy(&f, &bits, 4);
  return f;
}

double ByteReader::ReadF64() {
  uint64_t bits = ReadFixedU64();
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

bool ByteReader::ReadBytes(size_t n, std::vector<uint8_t>* out) {
  if (pos_ + n > size_) {
    Fail();
    return false;
  }
  out->assign(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return true;
}

std::string ByteReader::ReadString(size_t n) {
  if (pos_ + n > size_) {
    Fail();
    return "";
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

bool ByteReader::Skip(size_t n) {
  if (pos_ + n > size_) {
    Fail();
    return false;
  }
  pos_ += n;
  return true;
}

}  // namespace nsf
