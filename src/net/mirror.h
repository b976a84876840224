#ifndef LEDGERDB_NET_MIRROR_H_
#define LEDGERDB_NET_MIRROR_H_

// LedgerMirror, the commitment core, lives in the ledger library; this
// header keeps existing includes compiling.
#include "ledger/ledger_mirror.h"

#endif  // LEDGERDB_NET_MIRROR_H_
