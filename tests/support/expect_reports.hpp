// gtest forms of report_compare.hpp: each difference fails the test with
// `what` as context.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "report_compare.hpp"

namespace cpart {

inline void expect_events_identical(const std::vector<ContactEvent>& got,
                                    const std::vector<ContactEvent>& want,
                                    const std::string& what) {
  for (const std::string& d : event_differences(got, want)) {
    ADD_FAILURE() << what << ": " << d;
  }
}

inline void expect_reports_identical(const DistributedStepReport& got,
                                     const DistributedStepReport& want,
                                     const std::string& what) {
  for (const std::string& d : report_differences(got, want)) {
    ADD_FAILURE() << what << ": " << d;
  }
}

}  // namespace cpart
