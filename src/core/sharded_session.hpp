// The sharded session is the session: JoinSession runs one driver over
// N >= 1 shards, and ShardedJoinSession is its alias
// (core/join_session.hpp). This header remains for code that includes it
// by name.
#pragma once

#include "core/join_session.hpp"
