/**
 * @file
 * expectSameFields: the gtest check that two values of a field-listed
 * stats struct (sim/fields.hh) are equal in every field, naming the
 * first field that differs.
 */

#ifndef HAMS_TESTS_EXPECT_FIELDS_HH_
#define HAMS_TESTS_EXPECT_FIELDS_HH_

#include <gtest/gtest.h>

#include <string>

#include "sim/fields.hh"

namespace hams {

template <typename T>
void
expectSameFields(const T& a, const T& b, const std::string& what)
{
    EXPECT_EQ(firstDifference(a, b), "") << what;
}

} // namespace hams

#endif // HAMS_TESTS_EXPECT_FIELDS_HH_
