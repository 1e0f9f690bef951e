/// \file proptest.h
/// \brief Umbrella header for the property-based differential-testing
///        library: deterministic RNG, instance model + serialization,
///        per-oracle generators, oracle cross-checks, greedy shrinking,
///        and the fuzz harness. See docs/testing.md for the user guide.
#pragma once

#include "proptest/generate.h"
#include "proptest/harness.h"
#include "proptest/inject.h"
#include "proptest/instance.h"
#include "proptest/oracles.h"
#include "proptest/rng.h"
#include "proptest/shrink.h"
