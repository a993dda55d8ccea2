#include "fvc/cli/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fvc::cli {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv(tokens);
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, EmptyCommandLine) {
  const Args args = parse({});
  EXPECT_TRUE(args.command().empty());
  EXPECT_FALSE(args.has("anything"));
}

TEST(Args, SubcommandAndFlags) {
  const Args args = parse({"simulate", "--n", "500", "--theta=0.785"});
  EXPECT_EQ(args.command(), "simulate");
  EXPECT_TRUE(args.has("n"));
  EXPECT_TRUE(args.has("theta"));
  EXPECT_EQ(args.get_size("n", 0), 500u);
  EXPECT_DOUBLE_EQ(args.get_double("theta", 0.0), 0.785);
}

TEST(Args, DefaultsWhenAbsent) {
  const Args args = parse({"csa"});
  EXPECT_DOUBLE_EQ(args.get_double("theta", 1.5), 1.5);
  EXPECT_EQ(args.get_size("n", 42), 42u);
  EXPECT_EQ(args.get_string("name", "x"), "x");
}

TEST(Args, EqualsSyntax) {
  const Args args = parse({"--key=value", "--num=3.5"});
  EXPECT_EQ(args.get_string("key", ""), "value");
  EXPECT_DOUBLE_EQ(args.get_double("num", 0.0), 3.5);
}

TEST(Args, Errors) {
  EXPECT_THROW(parse({"cmd1", "cmd2"}), std::invalid_argument);          // two positionals
  EXPECT_THROW(parse({"--a", "1", "--a", "2"}), std::invalid_argument);  // duplicate
  EXPECT_THROW(parse({"--=x"}), std::invalid_argument);                  // empty name
}

TEST(Args, BareFlagsAreBooleanSwitches) {
  // A flag followed by another flag (or by nothing) records "1":
  // `top --once --json` needs no explicit values.
  const Args args = parse({"top", "--once", "--json", "--socket", "/tmp/s"});
  EXPECT_TRUE(args.get_bool("once", false));
  EXPECT_TRUE(args.get_bool("json", false));
  EXPECT_EQ(args.get_string("socket", ""), "/tmp/s");
  const Args trailing = parse({"--once"});
  EXPECT_TRUE(trailing.get_bool("once", false));
  // Explicit values still win over the bare form.
  const Args explicit_off = parse({"--once", "0"});
  EXPECT_FALSE(explicit_off.get_bool("once", false));
}

TEST(Args, MalformedNumbers) {
  const Args args = parse({"--n", "12x", "--f", "abc"});
  EXPECT_THROW((void)args.get_double("f", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("n", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_size("n", 0), std::invalid_argument);
}

TEST(Args, SizeRejectsNegativeAndFractional) {
  const Args neg = parse({"--n", "-3"});
  EXPECT_THROW((void)neg.get_size("n", 0), std::invalid_argument);
  const Args frac = parse({"--n", "2.5"});
  EXPECT_THROW((void)frac.get_size("n", 0), std::invalid_argument);
  // Out of std::size_t's range, or not a number at all: rejected before any
  // float-to-integer conversion.
  for (const char* text : {"1e30", "inf", "nan", "18446744073709551616"}) {
    const Args big = parse({"--n", text});
    EXPECT_THROW((void)big.get_size("n", 0), std::invalid_argument) << text;
  }
}

TEST(Args, GetBool) {
  const Args args = parse({"--a", "1", "--b", "true", "--c", "yes", "--d", "on",
                           "--e", "0", "--f", "false", "--g", "no", "--h", "off"});
  for (const char* key : {"a", "b", "c", "d"}) {
    EXPECT_TRUE(args.get_bool(key, false)) << key;
  }
  for (const char* key : {"e", "f", "g", "h"}) {
    EXPECT_FALSE(args.get_bool(key, true)) << key;
  }
  EXPECT_TRUE(args.get_bool("absent", true));
  EXPECT_FALSE(args.get_bool("absent", false));
}

TEST(Args, GetBoolRejectsJunk) {
  const Args args = parse({"--flag", "maybe"});
  EXPECT_THROW((void)args.get_bool("flag", false), std::invalid_argument);
}

TEST(Args, GetInt) {
  const Args args = parse({"--pos", "42", "--neg", "-17", "--zero", "0"});
  EXPECT_EQ(args.get_int("pos", 0), 42);
  EXPECT_EQ(args.get_int("neg", 0), -17);
  EXPECT_EQ(args.get_int("zero", 5), 0);
  EXPECT_EQ(args.get_int("absent", -3), -3);
}

TEST(Args, GetIntRejectsJunkAndFractions) {
  const Args args = parse({"--a", "12x", "--b", "2.5", "--c", "abc"});
  EXPECT_THROW((void)args.get_int("a", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("b", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("c", 0), std::invalid_argument);
}

TEST(Args, ExpectOnly) {
  const Args args = parse({"cmd", "--good", "1", "--bad", "2"});
  EXPECT_THROW(args.expect_only({"good"}), std::invalid_argument);
  EXPECT_NO_THROW(args.expect_only({"good", "bad"}));
}

TEST(Args, ValueWithDashes) {
  // Values starting with "--" are consumed as values in --key=value form.
  const Args args = parse({"--key=--weird"});
  EXPECT_EQ(args.get_string("key", ""), "--weird");
}

}  // namespace
}  // namespace fvc::cli
