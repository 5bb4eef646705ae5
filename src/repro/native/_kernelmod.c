/* Word-array native checking kernel.
 *
 * C fast path for the explicit checker's hot loop.  The search mirrors the
 * bigint reference kernel (KernelSearch and ReachabilityKernel in
 * repro/checker/kernel.py) decision for decision, and the mask evaluator
 * runs the repro/native/flatprog.py encoding.  The differential suite
 * (tests/native/test_kernel_differential.py) holds both bit-identical to
 * the bigint kernel, across the 64-bit word boundaries too:
 *
 *   Problem        -- one execution's flattened search problem: the
 *                     decision plan, coherence orders, read-from
 *                     candidates, program order and the event-flag,
 *                     location and po-pair buffers of the atom masks, as
 *                     contiguous int32/uint64 buffers.  Built from the
 *                     buffers repro.native.problem flattens out of an
 *                     IndexedExecution, or by Problem.from_items straight
 *                     from an enumerated test's item tuples (the same
 *                     tuples the Profiler parses); Problem.fields exposes
 *                     every table so tests/native/test_items_problem.py
 *                     can hold the two constructions equal.
 *   Problem.search -- the decide/propagate/undo backtracking search with
 *                     incremental word-array reachability, O(words) undo
 *                     via a (word-offset, old-word) trail, and cycle /
 *                     anti-program-order pruning.  Returns the first
 *                     witness found (rf sources + chosen coherence order
 *                     index per slot) or None -- iteration order matches
 *                     the bigint kernel exactly, so witnesses are
 *                     bit-identical across backends.
 *   Problem.allowed -- the same search for the po pairs set in a mask,
 *                     answering only whether a witness exists.
 *   Problem.atom_masks -- the builtin trait/SameAddr atoms' truth vectors.
 *   Problem.eval_program -- evaluates a flattened ModelIR mask program
 *                     (repro.native.flatprog encoding) over the po-pair
 *                     word universe, atoms supplied as one buffer of
 *                     little-endian words, and returns the output
 *                     registers as Python ints.
 *   bench_reach    -- reachability add/undo micro-benchmark hook.
 *   Profiler       -- the adaptive pipeline's range profiler, built once
 *                     per process from an AdaptiveSpace's pair tables
 *                     (repro.pipeline.adaptive.NativeProfiler).
 *                     profile_block walks one shape combination's outcomes
 *                     in itertools.product order and, per test, mirrors
 *                     AdaptiveSpace.profile (repro/pipeline/adaptive.py):
 *                     the R4/R2/R1 erasures to a fixpoint with conduit
 *                     marking, per-thread forced-edge closure signatures
 *                     memoised by reduced-thread structure, and the
 *                     first-use relabelling minimised over thread orders.
 *                     Each test gets a dense profile id from a key table
 *                     held here; ids new to the table come back with
 *                     repr(profile), so the Python side digests each
 *                     profile once.  The Python profiler stays the
 *                     reference (tests/pipeline/test_native_profiler.py).
 *
 * Bitsets are little-endian arrays of 64-bit words: bit i lives in word
 * i >> 6 at position i & 63, byte-identical to int.to_bytes(.., "little").
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <stdint.h>
#include <string.h>

#define OP_TRUE 0
#define OP_FALSE 1
#define OP_ATOM 2
#define OP_NATOM 3
#define OP_AND 4
#define OP_OR 5

#define RF_INITIAL (-1)

/* event kinds, in item order ("R" < "W"; fences last) */
#define PF_R 0
#define PF_W 1
#define PF_F 2

typedef struct {
    PyObject_HEAD
    int n;            /* events */
    int nw;           /* words per event bitset */
    int num_pairs;    /* same-thread po pairs */
    int pw;           /* words per pair mask */
    int nloads;
    int nplan;
    int nslots;       /* coherence slots (locations with stores) */
    int8_t *plan_kind;   /* nplan: 0 = co, 1 = rf */
    int32_t *plan_arg;   /* nplan: co slot | load position */
    int32_t *co_count;   /* nslots: orders per slot */
    int32_t *co_len;     /* nslots: stores per order */
    int64_t *co_off;     /* nslots: offset into co_flat */
    int32_t *co_flat;
    int64_t co_flat_len;
    int32_t *loads;      /* nloads: event index per load position */
    int32_t *load_slot;  /* nloads: coherence slot (-1 when storeless) */
    int32_t *rf_off;     /* nloads + 1 */
    int32_t *rf_flat;
    int32_t *thread_of;  /* n */
    uint64_t *po_before; /* n * nw */
    char infeasible;     /* some load has no read-from candidate */
    /* the atom_masks inputs */
    int32_t *pairs;      /* num_pairs * 2: same-thread po pairs (u, v) */
    uint8_t *flags;      /* n: read 1 | write 2 | fence 4 | memory access 8 */
    int32_t *locid;      /* n: first-use location index, -1 for fences */
    /* reusable search state */
    uint64_t *reach;     /* n * nw */
    int64_t *trail_off;
    uint64_t *trail_old;
    int64_t trail_cap;
    int64_t trail_len;
    int32_t *rf_choice;  /* nloads */
    int32_t *co_choice;  /* nslots: chosen order index */
    int32_t *co_position;/* n: store position in its chosen order */
} ProblemObject;

/* ------------------------------------------------------------------ */
/* construction                                                        */
/* ------------------------------------------------------------------ */

static void *
copy_bytes(PyObject *obj, Py_ssize_t expected, const char *what)
{
    char *data;
    Py_ssize_t size;
    void *copy;
    if (PyBytes_AsStringAndSize(obj, &data, &size) < 0)
        return NULL;
    if (size != expected) {
        PyErr_Format(PyExc_ValueError, "%s: expected %zd bytes, got %zd",
                     what, expected, size);
        return NULL;
    }
    copy = PyMem_Malloc(expected ? (size_t)expected : 1);
    if (copy == NULL)
        return PyErr_NoMemory();
    memcpy(copy, data, (size_t)expected);
    return copy;
}

static void
Problem_dealloc(ProblemObject *self)
{
    PyMem_Free(self->plan_kind);
    PyMem_Free(self->plan_arg);
    PyMem_Free(self->co_count);
    PyMem_Free(self->co_len);
    PyMem_Free(self->co_off);
    PyMem_Free(self->co_flat);
    PyMem_Free(self->loads);
    PyMem_Free(self->load_slot);
    PyMem_Free(self->rf_off);
    PyMem_Free(self->rf_flat);
    PyMem_Free(self->thread_of);
    PyMem_Free(self->po_before);
    PyMem_Free(self->pairs);
    PyMem_Free(self->flags);
    PyMem_Free(self->locid);
    PyMem_Free(self->reach);
    PyMem_RawFree(self->trail_off);
    PyMem_RawFree(self->trail_old);
    PyMem_Free(self->rf_choice);
    PyMem_Free(self->co_choice);
    PyMem_Free(self->co_position);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Allocate the reusable search state and derive `infeasible`, once the
 * problem's tables are in place.  -1 with an exception set on failure. */
static int
problem_finish(ProblemObject *self)
{
    int i, n = self->n, nloads = self->nloads, nslots = self->nslots;

    self->infeasible = 0;
    for (i = 0; i < nloads; i++) {
        if (self->rf_off[i] == self->rf_off[i + 1])
            self->infeasible = 1;
    }
    self->reach = PyMem_Malloc((size_t)n * self->nw * 8 + 8);
    self->rf_choice = PyMem_Malloc((size_t)(nloads ? nloads : 1) * 4);
    self->co_choice = PyMem_Malloc((size_t)(nslots ? nslots : 1) * 4);
    self->co_position = PyMem_Malloc((size_t)(n ? n : 1) * 4);
    self->trail_cap = 256;
    self->trail_len = 0;
    self->trail_off = PyMem_RawMalloc((size_t)self->trail_cap * 8);
    self->trail_old = PyMem_RawMalloc((size_t)self->trail_cap * 8);
    if (!self->reach || !self->rf_choice || !self->co_choice ||
        !self->co_position || !self->trail_off || !self->trail_old) {
        PyMem_Free(self->reach);
        self->reach = NULL; /* the problem stays "not initialised" */
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* 1 when the problem's tables are in place; else 0 with an exception set. */
static int
problem_ready(ProblemObject *self)
{
    if (self->reach == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Problem is not initialised");
        return 0;
    }
    return 1;
}

static int
Problem_init(ProblemObject *self, PyObject *args, PyObject *kwds)
{
    int n, num_pairs, nloads, nplan, nslots;
    PyObject *plan_kind_b, *plan_arg_b, *co_count_b, *co_len_b, *co_off_b;
    PyObject *co_flat_b, *loads_b, *load_slot_b, *rf_off_b, *rf_flat_b;
    PyObject *thread_of_b, *po_before_b, *pairs_b, *flags_b, *locid_b;
    int i;

    if (kwds != NULL && PyDict_Size(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "Problem takes no keyword arguments");
        return -1;
    }
    if (self->reach != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Problem is already initialised");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "iiiiiSSSSSSSSSSSSSSS", &n, &num_pairs, &nloads,
                          &nplan, &nslots, &plan_kind_b, &plan_arg_b,
                          &co_count_b, &co_len_b, &co_off_b, &co_flat_b,
                          &loads_b, &load_slot_b, &rf_off_b, &rf_flat_b,
                          &thread_of_b, &po_before_b, &pairs_b, &flags_b,
                          &locid_b))
        return -1;
    if (n < 0 || num_pairs < 0 || nloads < 0 || nplan < 0 || nslots < 0) {
        PyErr_SetString(PyExc_ValueError, "Problem: negative dimension");
        return -1;
    }
    self->n = n;
    self->nw = n > 0 ? (n + 63) >> 6 : 1;
    self->num_pairs = num_pairs;
    self->pw = num_pairs > 0 ? (num_pairs + 63) >> 6 : 1;
    self->nloads = nloads;
    self->nplan = nplan;
    self->nslots = nslots;

    self->co_flat_len = (int64_t)PyBytes_GET_SIZE(co_flat_b) / 4;

    self->plan_kind = copy_bytes(plan_kind_b, nplan, "plan_kind");
    if (!self->plan_kind) return -1;
    self->plan_arg = copy_bytes(plan_arg_b, (Py_ssize_t)nplan * 4, "plan_arg");
    if (!self->plan_arg) return -1;
    self->co_count = copy_bytes(co_count_b, (Py_ssize_t)nslots * 4, "co_count");
    if (!self->co_count) return -1;
    self->co_len = copy_bytes(co_len_b, (Py_ssize_t)nslots * 4, "co_len");
    if (!self->co_len) return -1;
    self->co_off = copy_bytes(co_off_b, (Py_ssize_t)nslots * 8, "co_off");
    if (!self->co_off) return -1;
    self->co_flat = copy_bytes(co_flat_b, (Py_ssize_t)self->co_flat_len * 4,
                               "co_flat");
    if (!self->co_flat) return -1;
    self->loads = copy_bytes(loads_b, (Py_ssize_t)nloads * 4, "loads");
    if (!self->loads) return -1;
    self->load_slot = copy_bytes(load_slot_b, (Py_ssize_t)nloads * 4,
                                 "load_slot");
    if (!self->load_slot) return -1;
    self->rf_off = copy_bytes(rf_off_b, (Py_ssize_t)(nloads + 1) * 4, "rf_off");
    if (!self->rf_off) return -1;
    self->rf_flat = copy_bytes(rf_flat_b,
                               (Py_ssize_t)self->rf_off[nloads] * 4, "rf_flat");
    if (!self->rf_flat) return -1;
    self->thread_of = copy_bytes(thread_of_b, (Py_ssize_t)n * 4, "thread_of");
    if (!self->thread_of) return -1;
    self->po_before = copy_bytes(po_before_b,
                                 (Py_ssize_t)n * self->nw * 8, "po_before");
    if (!self->po_before) return -1;
    self->pairs = copy_bytes(pairs_b, (Py_ssize_t)num_pairs * 8, "pairs");
    if (!self->pairs) return -1;
    self->flags = copy_bytes(flags_b, n, "flags");
    if (!self->flags) return -1;
    self->locid = copy_bytes(locid_b, (Py_ssize_t)n * 4, "locid");
    if (!self->locid) return -1;

    /* Validate every index the search will dereference: a bad buffer must
     * raise here, not corrupt memory later. */
    for (i = 0; i < nplan; i++) {
        int kind = self->plan_kind[i], arg = self->plan_arg[i];
        if (kind == 0 ? (arg < 0 || arg >= nslots)
                      : (kind != 1 || arg < 0 || arg >= nloads)) {
            PyErr_SetString(PyExc_ValueError, "Problem: bad plan step");
            return -1;
        }
    }
    for (i = 0; i < nslots; i++) {
        int64_t need = (int64_t)self->co_count[i] * self->co_len[i];
        int64_t j;
        if (self->co_count[i] < 0 || self->co_len[i] < 0 ||
            self->co_off[i] < 0 || self->co_off[i] + need > self->co_flat_len) {
            PyErr_SetString(PyExc_ValueError, "Problem: bad coherence table");
            return -1;
        }
        for (j = 0; j < need; j++) {
            int32_t store = self->co_flat[self->co_off[i] + j];
            if (store < 0 || store >= n) {
                PyErr_SetString(PyExc_ValueError, "Problem: bad store index");
                return -1;
            }
        }
    }
    for (i = 0; i < nloads; i++) {
        int j;
        if (self->loads[i] < 0 || self->loads[i] >= n ||
            self->load_slot[i] < -1 || self->load_slot[i] >= nslots ||
            self->rf_off[i] < 0 || self->rf_off[i] > self->rf_off[i + 1]) {
            PyErr_SetString(PyExc_ValueError, "Problem: bad load table");
            return -1;
        }
        for (j = self->rf_off[i]; j < self->rf_off[i + 1]; j++) {
            if (self->rf_flat[j] < RF_INITIAL || self->rf_flat[j] >= n) {
                PyErr_SetString(PyExc_ValueError, "Problem: bad rf candidate");
                return -1;
            }
        }
    }
    for (i = 0; i < num_pairs * 2; i++) {
        if (self->pairs[i] < 0 || self->pairs[i] >= n) {
            PyErr_SetString(PyExc_ValueError, "Problem: pair out of range");
            return -1;
        }
    }
    return problem_finish(self);
}

/* ------------------------------------------------------------------ */
/* construction straight from enumeration items                        */
/* ------------------------------------------------------------------ */

/* Appends to a growable int32 buffer; 0 on allocation failure. */
typedef struct {
    int32_t *data;
    int64_t len, cap;
} IntBuf;

static int
ib_push(IntBuf *b, int32_t value)
{
    if (b->len == b->cap) {
        int64_t cap = b->cap ? b->cap * 2 : 64;
        int32_t *grown = PyMem_Realloc(b->data, (size_t)cap * 4);
        if (grown == NULL)
            return 0;
        b->data = grown;
        b->cap = cap;
    }
    b->data[b->len++] = value;
    return 1;
}

/* Coherence-order generation for one location (IndexedExecution.
 * _store_orders): the interleavings of the per-thread store chains, the
 * ready chain heads tried in store order.  Events are thread-major, so
 * store order among chain heads is thread order. */
typedef struct {
    int nthreads, total;
    const int32_t *chain;   /* stores grouped by thread, in order */
    const int *chain_off;   /* nthreads + 1 */
    int *head;              /* per thread: next store in its chain */
    int32_t *prefix;
    IntBuf *out;
    int32_t count;
} CoGen;

static int
co_extend(CoGen *g, int depth)
{
    int t;
    if (depth == g->total) {
        int i;
        for (i = 0; i < g->total; i++) {
            if (!ib_push(g->out, g->prefix[i]))
                return 0;
        }
        g->count++;
        return 1;
    }
    for (t = 0; t < g->nthreads; t++) {
        if (g->chain_off[t] + g->head[t] == g->chain_off[t + 1])
            continue;
        g->prefix[depth] = g->chain[g->chain_off[t] + g->head[t]];
        g->head[t]++;
        if (!co_extend(g, depth + 1))
            return 0;
        g->head[t]--;
    }
    return 1;
}

static int64_t
item_int(PyObject *item, Py_ssize_t index)
{
    PyObject *value = PyTuple_GET_ITEM(item, index);
    if (!PyLong_Check(value)) {
        PyErr_SetString(PyExc_TypeError,
                        "Problem.from_items: locations and values must be ints");
        return -1;
    }
    return (int64_t)PyLong_AsLongLong(value);
}

/* Problem.from_items(items): the problem repro.native.problem flattens out
 * of the IndexedExecution of test_from_items(items, name), built from the
 * item tuples directly.  Every table follows the IndexedExecution constructions
 * it replaces: events thread-major, locations in first-use order, read-from
 * candidates INITIAL first (initial value 0) then matching stores in event
 * order, coherence slots and the plan in location order.  The differential
 * suite (tests/native/test_items_problem.py) holds the buffers equal. */
static PyObject *
Problem_from_items(PyTypeObject *type, PyObject *items)
{
    PyObject *threads = NULL, *result = NULL;
    ProblemObject *self = NULL;
    Py_ssize_t nthreads, t;
    int n = 0, i, j, e, nlocs = 0, nloads = 0, nslots = 0, nplan = 0;
    int *tstart = NULL, *slot_of = NULL, *chain_off = NULL, *head = NULL;
    int8_t *kind = NULL;
    int64_t *value = NULL, *locvals = NULL;
    int32_t *chain = NULL, *prefix = NULL;
    IntBuf rf = {NULL, 0, 0}, co = {NULL, 0, 0};

    threads = PySequence_Fast(items, "Problem.from_items: items must be a sequence");
    if (threads == NULL)
        return NULL;
    nthreads = PySequence_Fast_GET_SIZE(threads);
    tstart = PyMem_Malloc((size_t)(nthreads + 1) * sizeof(int));
    if (tstart == NULL)
        goto nomem;
    for (t = 0; t < nthreads; t++) {
        PyObject *row = PySequence_Fast_GET_ITEM(threads, t);
        if (!PyTuple_Check(row)) {
            PyErr_SetString(PyExc_TypeError, "Problem.from_items: a thread must be a tuple");
            goto done;
        }
        tstart[t] = n;
        n += (int)PyTuple_GET_SIZE(row);
    }
    tstart[nthreads] = n;

    self = (ProblemObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        goto done;
    self->n = n;
    self->nw = n > 0 ? (n + 63) >> 6 : 1;
    kind = PyMem_Malloc((size_t)(n ? n : 1));
    value = PyMem_Malloc((size_t)(n ? n : 1) * 8);
    locvals = PyMem_Malloc((size_t)(n ? n : 1) * 8);
    self->thread_of = PyMem_Malloc((size_t)(n ? n : 1) * 4);
    self->flags = PyMem_Malloc((size_t)(n ? n : 1));
    self->locid = PyMem_Malloc((size_t)(n ? n : 1) * 4);
    self->po_before = PyMem_Calloc((size_t)n * self->nw + 1, 8);
    if (!kind || !value || !locvals || !self->thread_of || !self->flags ||
        !self->locid || !self->po_before)
        goto nomem;

    /* Events: kind, location (first-use index), value, thread, flags,
     * program order. */
    for (t = 0, i = 0; t < nthreads; t++) {
        PyObject *row = PySequence_Fast_GET_ITEM(threads, t);
        for (e = 0; e < tstart[t + 1] - tstart[t]; e++, i++) {
            PyObject *item = PyTuple_GET_ITEM(row, e), *tag;
            Py_UCS4 ch = 0;
            if (PyTuple_Check(item) && PyTuple_GET_SIZE(item) == 3) {
                tag = PyTuple_GET_ITEM(item, 0);
                if (PyUnicode_Check(tag) && PyUnicode_GET_LENGTH(tag) == 1)
                    ch = PyUnicode_READ_CHAR(tag, 0);
            }
            if (ch != 'R' && ch != 'W' && ch != 'F') {
                PyErr_SetString(PyExc_ValueError, "Problem.from_items: malformed item");
                goto done;
            }
            self->thread_of[i] = (int32_t)t;
            for (j = tstart[t]; j < i; j++)
                self->po_before[(size_t)i * self->nw + (j >> 6)] |= (uint64_t)1 << (j & 63);
            if (ch == 'F') {
                kind[i] = PF_F;
                self->flags[i] = 4;
                self->locid[i] = -1;
                continue;
            }
            {
                int64_t loc = item_int(item, 1), val;
                if (loc == -1 && PyErr_Occurred())
                    goto done;
                val = item_int(item, 2);
                if (val == -1 && PyErr_Occurred())
                    goto done;
                for (j = 0; j < nlocs && locvals[j] != loc; j++)
                    ;
                if (j == nlocs)
                    locvals[nlocs++] = loc;
                kind[i] = ch == 'R' ? PF_R : PF_W;
                self->flags[i] = ch == 'R' ? (1 | 8) : (2 | 8);
                self->locid[i] = j;
                value[i] = val;
                if (ch == 'R')
                    nloads++;
            }
        }
    }

    /* Same-thread program-order pairs, thread by thread. */
    for (t = 0; t < nthreads; t++) {
        int len = tstart[t + 1] - tstart[t];
        self->num_pairs += len * (len - 1) / 2;
    }
    self->pw = self->num_pairs > 0 ? (self->num_pairs + 63) >> 6 : 1;
    self->pairs = PyMem_Malloc((size_t)(self->num_pairs ? self->num_pairs : 1) * 8);
    if (self->pairs == NULL)
        goto nomem;
    for (t = 0, j = 0; t < nthreads; t++) {
        int u, v;
        for (u = tstart[t]; u < tstart[t + 1]; u++) {
            for (v = u + 1; v < tstart[t + 1]; v++) {
                self->pairs[j++] = u;
                self->pairs[j++] = v;
            }
        }
    }

    /* Loads and their read-from candidates. */
    self->nloads = nloads;
    self->loads = PyMem_Malloc((size_t)(nloads ? nloads : 1) * 4);
    self->load_slot = PyMem_Malloc((size_t)(nloads ? nloads : 1) * 4);
    self->rf_off = PyMem_Malloc((size_t)(nloads + 1) * 4);
    if (!self->loads || !self->load_slot || !self->rf_off)
        goto nomem;
    for (i = 0, j = 0; i < n; i++) {
        int s;
        if (kind[i] != PF_R)
            continue;
        self->loads[j] = i;
        self->rf_off[j] = (int32_t)rf.len;
        if (value[i] == 0 && !ib_push(&rf, RF_INITIAL))
            goto nomem;
        for (s = 0; s < n; s++) {
            if (kind[s] == PF_W && self->locid[s] == self->locid[i] &&
                value[s] == value[i] &&
                !(self->thread_of[s] == self->thread_of[i] && s > i) &&
                !ib_push(&rf, s))
                goto nomem;
        }
        j++;
    }
    self->rf_off[nloads] = (int32_t)rf.len;
    self->rf_flat = rf.data ? rf.data : PyMem_Malloc(4);
    rf.data = NULL;
    if (self->rf_flat == NULL)
        goto nomem;
    for (i = 0; i < nloads; i++) {
        if (self->rf_off[i] == self->rf_off[i + 1])
            self->infeasible = 1;
    }

    /* Coherence slots (locations with stores, first-use order), their
     * store orders (none at all when infeasible), and the plan. */
    slot_of = PyMem_Malloc((size_t)(nlocs ? nlocs : 1) * sizeof(int));
    chain = PyMem_Malloc((size_t)(n ? n : 1) * 4);
    prefix = PyMem_Malloc((size_t)(n ? n : 1) * 4);
    chain_off = PyMem_Malloc((size_t)(nthreads + 1) * sizeof(int));
    head = PyMem_Calloc((size_t)(nthreads ? nthreads : 1), sizeof(int));
    self->co_count = PyMem_Malloc((size_t)(nlocs ? nlocs : 1) * 4);
    self->co_len = PyMem_Malloc((size_t)(nlocs ? nlocs : 1) * 4);
    self->co_off = PyMem_Malloc((size_t)(nlocs ? nlocs : 1) * 8);
    self->plan_kind = PyMem_Malloc((size_t)(nlocs + nloads + 1));
    self->plan_arg = PyMem_Malloc((size_t)(nlocs + nloads + 1) * 4);
    if (!slot_of || !chain || !prefix || !chain_off || !head || !self->co_count ||
        !self->co_len || !self->co_off || !self->plan_kind || !self->plan_arg)
        goto nomem;
    for (j = 0; j < nlocs; j++) {
        int nstores = 0;
        for (i = 0; i < n; i++) {
            if (kind[i] == PF_W && self->locid[i] == j)
                nstores++;
        }
        if (nstores == 0) {
            slot_of[j] = -1;
            continue;
        }
        slot_of[j] = nslots;
        self->co_off[nslots] = co.len;
        if (self->infeasible) {
            self->co_count[nslots] = 0;
            self->co_len[nslots] = 0;
        } else {
            CoGen gen;
            int k = 0;
            for (t = 0; t < nthreads; t++) {
                chain_off[t] = k;
                head[t] = 0;
                for (i = tstart[t]; i < tstart[t + 1]; i++) {
                    if (kind[i] == PF_W && self->locid[i] == j)
                        chain[k++] = i;
                }
            }
            chain_off[nthreads] = k;
            gen.nthreads = (int)nthreads;
            gen.total = nstores;
            gen.chain = chain;
            gen.chain_off = chain_off;
            gen.head = head;
            gen.prefix = prefix;
            gen.out = &co;
            gen.count = 0;
            if (!co_extend(&gen, 0))
                goto nomem;
            self->co_count[nslots] = gen.count;
            self->co_len[nslots] = nstores;
        }
        self->plan_kind[nplan] = 0;
        self->plan_arg[nplan++] = nslots;
        for (i = 0; i < nloads; i++) {
            if (self->locid[self->loads[i]] == j) {
                self->plan_kind[nplan] = 1;
                self->plan_arg[nplan++] = i;
            }
        }
        nslots++;
    }
    for (i = 0; i < nloads; i++)
        self->load_slot[i] = slot_of[self->locid[self->loads[i]]];
    self->nslots = nslots;
    self->nplan = nplan;
    self->co_flat_len = co.len;
    self->co_flat = co.data ? co.data : PyMem_Malloc(4);
    co.data = NULL;
    if (self->co_flat == NULL || problem_finish(self) < 0)
        goto done;
    result = (PyObject *)self;
    self = NULL;
    goto done;

nomem:
    PyErr_NoMemory();
done:
    Py_XDECREF(self);
    Py_DECREF(threads);
    PyMem_Free(tstart);
    PyMem_Free(kind);
    PyMem_Free(value);
    PyMem_Free(locvals);
    PyMem_Free(slot_of);
    PyMem_Free(chain);
    PyMem_Free(prefix);
    PyMem_Free(chain_off);
    PyMem_Free(head);
    PyMem_Free(rf.data);
    PyMem_Free(co.data);
    return result;
}

/* ------------------------------------------------------------------ */
/* incremental word-array reachability                                 */
/* ------------------------------------------------------------------ */

static int
trail_push(ProblemObject *p, int64_t offset, uint64_t old)
{
    if (p->trail_len == p->trail_cap) {
        int64_t cap = p->trail_cap * 2;
        int64_t *noff = PyMem_RawRealloc(p->trail_off, (size_t)cap * 8);
        uint64_t *nold;
        if (noff == NULL)
            return 0;
        p->trail_off = noff;
        nold = PyMem_RawRealloc(p->trail_old, (size_t)cap * 8);
        if (nold == NULL)
            return 0;
        p->trail_old = nold;
        p->trail_cap = cap;
    }
    p->trail_off[p->trail_len] = offset;
    p->trail_old[p->trail_len] = old;
    p->trail_len++;
    return 1;
}

static void
undo_to(ProblemObject *p, int64_t mark)
{
    while (p->trail_len > mark) {
        p->trail_len--;
        p->reach[p->trail_off[p->trail_len]] = p->trail_old[p->trail_len];
    }
}

/* Insert u -> v; 0 on a cycle (nothing changed), -1 on allocation failure. */
static int
add_edge(ProblemObject *p, int u, int v)
{
    const int nw = p->nw;
    uint64_t *reach = p->reach;
    uint64_t *row_v = reach + (size_t)v * nw;
    int uw = u >> 6, vw = v >> 6;
    uint64_t ubit = (uint64_t)1 << (u & 63), vbit = (uint64_t)1 << (v & 63);
    int w, k;

    if (u == v || (row_v[uw] & ubit))
        return 0;
    for (w = 0; w < p->n; w++) {
        uint64_t *row = reach + (size_t)w * nw;
        if (w != u && !(row[uw] & ubit))
            continue;
        for (k = 0; k < nw; k++) {
            uint64_t gain = row_v[k];
            uint64_t old, merged;
            if (k == vw)
                gain |= vbit;
            old = row[k];
            merged = old | gain;
            if (merged != old) {
                if (!trail_push(p, (int64_t)((size_t)w * nw + k), old))
                    return -1;
                row[k] = merged;
            }
        }
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* the backtracking search                                             */
/* ------------------------------------------------------------------ */

/* 1 = witness found, 0 = subtree exhausted, -1 = allocation failure */
static int
do_search(ProblemObject *p, int depth)
{
    int kind, arg;
    if (depth == p->nplan)
        return 1;
    kind = p->plan_kind[depth];
    arg = p->plan_arg[depth];
    if (kind == 0) { /* coherence order for slot arg */
        int count = p->co_count[arg], len = p->co_len[arg];
        const int32_t *base = p->co_flat + p->co_off[arg];
        int oi;
        for (oi = 0; oi < count; oi++) {
            const int32_t *order = base + (int64_t)oi * len;
            int64_t mark = p->trail_len;
            int ok = 1, i, inserted;
            for (i = 0; i + 1 < len; i++) {
                inserted = add_edge(p, order[i], order[i + 1]);
                if (inserted != 1) {
                    if (inserted < 0)
                        return -1;
                    ok = 0;
                    break;
                }
            }
            if (ok) {
                int descended;
                p->co_choice[arg] = oi;
                for (i = 0; i < len; i++)
                    p->co_position[order[i]] = i;
                descended = do_search(p, depth + 1);
                if (descended != 0)
                    return descended;
            }
            undo_to(p, mark);
        }
        return 0;
    } else { /* read-from source for load position arg */
        int load = p->loads[arg];
        int slot = p->load_slot[arg];
        int len = p->co_len[slot];
        const int32_t *order =
            p->co_flat + p->co_off[slot] + (int64_t)p->co_choice[slot] * len;
        const uint64_t *po_row = p->po_before + (size_t)load * p->nw;
        int c;
        for (c = p->rf_off[arg]; c < p->rf_off[arg + 1]; c++) {
            int source = p->rf_flat[c];
            int64_t mark = p->trail_len;
            int ok = 1, inserted;
            if (source != RF_INITIAL &&
                p->thread_of[source] != p->thread_of[load]) {
                inserted = add_edge(p, source, load); /* external rf edge */
                if (inserted < 0)
                    return -1;
                ok = inserted;
            }
            if (ok) {
                /* from-read edges: the load precedes every store not
                 * coherence-before its source */
                int start =
                    source == RF_INITIAL ? 0 : p->co_position[source] + 1;
                int i;
                for (i = start; i < len; i++) {
                    int other = order[i];
                    if (other == source)
                        continue;
                    if ((po_row[other >> 6] >> (other & 63)) & 1) {
                        ok = 0; /* anti-program-order edge */
                        break;
                    }
                    inserted = add_edge(p, load, other);
                    if (inserted != 1) {
                        if (inserted < 0)
                            return -1;
                        ok = 0;
                        break;
                    }
                }
            }
            if (ok) {
                int descended;
                p->rf_choice[arg] = source;
                descended = do_search(p, depth + 1);
                if (descended != 0)
                    return descended;
            }
            undo_to(p, mark);
        }
        return 0;
    }
}

/* Reset the search state, insert the forced program-order edges (the
 * int32 pairs of `edges`, or the pairs whose bit is set in the `mask`
 * words), and search.  1 = witness, 0 = none, -1 = allocation failure. */
static int
run_search(ProblemObject *self, const int32_t *edges, Py_ssize_t nedges,
           const uint64_t *mask)
{
    Py_ssize_t e;
    int i, found = 1;

    if (self->infeasible)
        return 0;
    memset(self->reach, 0, (size_t)self->n * self->nw * 8);
    self->trail_len = 0;
    for (i = 0; i < self->nloads; i++)
        self->rf_choice[i] = RF_INITIAL;
    if (mask != NULL) {
        for (i = 0; i < self->num_pairs && found == 1; i++) {
            if ((mask[i >> 6] >> (i & 63)) & 1)
                found = add_edge(self, self->pairs[i * 2], self->pairs[i * 2 + 1]);
        }
    } else {
        for (e = 0; e < nedges && found == 1; e++)
            found = add_edge(self, edges[e * 2], edges[e * 2 + 1]);
    }
    /* found == 0 here: program order alone is cyclic (unreachable) */
    return found == 1 ? do_search(self, 0) : found;
}

static PyObject *
Problem_search(ProblemObject *self, PyObject *args)
{
    PyObject *edges_b;
    char *edges_data;
    Py_ssize_t edges_size;
    const int32_t *edges;
    Py_ssize_t nedges, e;
    int found;
    int i;

    if (!problem_ready(self) || !PyArg_ParseTuple(args, "S", &edges_b))
        return NULL;
    if (PyBytes_AsStringAndSize(edges_b, &edges_data, &edges_size) < 0)
        return NULL;
    if (edges_size % 8 != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "search: edge buffer must be pairs of int32");
        return NULL;
    }
    edges = (const int32_t *)edges_data;
    nedges = edges_size / 8;
    for (e = 0; e < nedges * 2; e++) {
        if (edges[e] < 0 || edges[e] >= self->n) {
            PyErr_SetString(PyExc_ValueError, "search: edge index out of range");
            return NULL;
        }
    }

    Py_BEGIN_ALLOW_THREADS
    found = run_search(self, edges, nedges, NULL);
    Py_END_ALLOW_THREADS

    if (found < 0)
        return PyErr_NoMemory();
    if (found == 0)
        Py_RETURN_NONE;
    {
        PyObject *rf = PyTuple_New(self->nloads);
        PyObject *co, *result;
        if (rf == NULL)
            return NULL;
        for (i = 0; i < self->nloads; i++) {
            PyObject *value = PyLong_FromLong(self->rf_choice[i]);
            if (value == NULL) {
                Py_DECREF(rf);
                return NULL;
            }
            PyTuple_SET_ITEM(rf, i, value);
        }
        co = PyTuple_New(self->nslots);
        if (co == NULL) {
            Py_DECREF(rf);
            return NULL;
        }
        for (i = 0; i < self->nslots; i++) {
            PyObject *value = PyLong_FromLong(self->co_choice[i]);
            if (value == NULL) {
                Py_DECREF(rf);
                Py_DECREF(co);
                return NULL;
            }
            PyTuple_SET_ITEM(co, i, value);
        }
        result = PyTuple_Pack(2, rf, co);
        Py_DECREF(rf);
        Py_DECREF(co);
        return result;
    }
}

/* allowed(mask_bytes): whether some execution honours the po pairs set in
 * the pw-word mask -- the search without its witness. */
static PyObject *
Problem_allowed(ProblemObject *self, PyObject *mask_b)
{
    char *data;
    Py_ssize_t size;
    int found;

    if (!problem_ready(self) || PyBytes_AsStringAndSize(mask_b, &data, &size) < 0)
        return NULL;
    if (size != (Py_ssize_t)self->pw * 8) {
        PyErr_SetString(PyExc_ValueError, "allowed: expected pw words of mask");
        return NULL;
    }
    found = run_search(self, NULL, 0, (const uint64_t *)data);
    if (found < 0)
        return PyErr_NoMemory();
    return PyBool_FromLong(found);
}

/* ------------------------------------------------------------------ */
/* flattened mask-program evaluation                                   */
/* ------------------------------------------------------------------ */

/* A pw-word little-endian mask as a Python int. */
static PyObject *
words_to_long(const uint64_t *words, int pw)
{
    PyObject *result, *shift;
    int k;
    if (pw == 1)
        return PyLong_FromUnsignedLongLong(words[0]);
    shift = PyLong_FromLong(64);
    result = PyLong_FromUnsignedLongLong(words[pw - 1]);
    for (k = pw - 2; k >= 0 && result != NULL && shift != NULL; k--) {
        PyObject *word = PyLong_FromUnsignedLongLong(words[k]);
        PyObject *shifted = word ? PyNumber_Lshift(result, shift) : NULL;
        Py_DECREF(result);
        result = shifted ? PyNumber_Or(shifted, word) : NULL;
        Py_XDECREF(shifted);
        Py_XDECREF(word);
    }
    if (shift == NULL)
        Py_CLEAR(result);
    Py_XDECREF(shift);
    return result;
}

static PyObject *
Problem_eval_program(ProblemObject *self, PyObject *args)
{
    PyObject *result = NULL;
    int num_instructions;
    const char *codes_data, *atoms_data, *outputs_data;
    Py_ssize_t codes_size, atoms_size, outputs_size, natoms, noutputs, a;
    const int32_t *codes, *outputs;
    const uint64_t *atom_words;
    int64_t ncodes, position;
    const int pw = self->pw;
    uint64_t tail_last;
    uint64_t *registers = NULL;
    int r, k;

    if (!problem_ready(self) ||
        !PyArg_ParseTuple(args, "y#iy#y#", &codes_data, &codes_size, &num_instructions,
                          &atoms_data, &atoms_size, &outputs_data, &outputs_size))
        return NULL;
    if (codes_size % 4 != 0 || num_instructions < 1) {
        PyErr_SetString(PyExc_ValueError, "eval_program: bad code buffer");
        return NULL;
    }
    codes = (const int32_t *)codes_data;
    ncodes = codes_size / 4;
    if (atoms_size % ((Py_ssize_t)pw * 8) != 0) {
        PyErr_SetString(PyExc_ValueError, "eval_program: bad atom buffer");
        return NULL;
    }
    atom_words = (const uint64_t *)atoms_data;
    natoms = atoms_size / ((Py_ssize_t)pw * 8);
    if (outputs_size % 4 != 0 || outputs_size == 0) {
        PyErr_SetString(PyExc_ValueError, "eval_program: bad output buffer");
        return NULL;
    }
    outputs = (const int32_t *)outputs_data;
    noutputs = outputs_size / 4;
    for (a = 0; a < noutputs; a++) {
        if (outputs[a] < 0 || outputs[a] >= num_instructions) {
            PyErr_SetString(PyExc_ValueError,
                            "eval_program: output register out of range");
            return NULL;
        }
    }
    registers = PyMem_Malloc((size_t)num_instructions * pw * 8);
    if (registers == NULL)
        return PyErr_NoMemory();

    /* All-ones over num_pairs bits: words 0..pw-2 are always full, the
     * last word is partial (or empty when num_pairs == 0). */
    if (self->num_pairs == 0)
        tail_last = 0;
    else if ((self->num_pairs & 63) == 0)
        tail_last = ~(uint64_t)0;
    else
        tail_last = ((uint64_t)1 << (self->num_pairs & 63)) - 1;

    position = 0;
    for (r = 0; r < num_instructions; r++) {
        uint64_t *reg = registers + (size_t)r * pw;
        const uint64_t *atom;
        int op, operand;
        if (position + 2 > ncodes)
            goto truncated;
        op = codes[position];
        operand = codes[position + 1];
        position += 2;
        switch (op) {
        case OP_TRUE:
            for (k = 0; k < pw - 1; k++)
                reg[k] = ~(uint64_t)0;
            reg[pw - 1] = tail_last;
            break;
        case OP_FALSE:
            memset(reg, 0, (size_t)pw * 8);
            break;
        case OP_ATOM:
        case OP_NATOM:
            if (operand < 0 || operand >= natoms) {
                PyErr_SetString(PyExc_ValueError,
                                "eval_program: atom index out of range");
                goto done;
            }
            atom = atom_words + (size_t)operand * pw;
            if (op == OP_ATOM) {
                memcpy(reg, atom, (size_t)pw * 8);
            } else {
                /* complement stays inside the pair universe */
                for (k = 0; k < pw - 1; k++)
                    reg[k] = ~atom[k];
                reg[pw - 1] = ~atom[pw - 1] & tail_last;
            }
            break;
        case OP_AND:
        case OP_OR: {
            int count = operand, s;
            if (count < 0 || position + count > ncodes)
                goto truncated;
            if (op == OP_AND) {
                for (k = 0; k < pw - 1; k++)
                    reg[k] = ~(uint64_t)0;
                reg[pw - 1] = tail_last;
            } else {
                memset(reg, 0, (size_t)pw * 8);
            }
            for (s = 0; s < count; s++) {
                int source = codes[position + s];
                const uint64_t *row;
                if (source < 0 || source >= r) {
                    PyErr_SetString(PyExc_ValueError,
                                    "eval_program: bad register reference");
                    goto done;
                }
                row = registers + (size_t)source * pw;
                if (op == OP_AND)
                    for (k = 0; k < pw; k++)
                        reg[k] &= row[k];
                else
                    for (k = 0; k < pw; k++)
                        reg[k] |= row[k];
            }
            position += count;
            break;
        }
        default:
            PyErr_SetString(PyExc_ValueError, "eval_program: unknown opcode");
            goto done;
        }
    }
    /* the requested output registers, in request order, as ints */
    result = PyList_New(noutputs);
    if (result == NULL)
        goto done;
    for (a = 0; a < noutputs; a++) {
        PyObject *mask = words_to_long(registers + (size_t)outputs[a] * pw, pw);
        if (mask == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, a, mask);
    }
    goto done;

truncated:
    PyErr_SetString(PyExc_ValueError, "eval_program: truncated code buffer");
done:
    PyMem_Free(registers);
    return result;
}

/* ------------------------------------------------------------------ */
/* reachability micro-benchmark hook                                   */
/* ------------------------------------------------------------------ */

static PyObject *
kernelmod_bench_reach(PyObject *module, PyObject *args)
{
    int n, rounds;
    PyObject *edges_b;
    char *edges_data;
    Py_ssize_t edges_size;
    const int32_t *edges;
    Py_ssize_t nedges, e;
    ProblemObject stack;
    ProblemObject *p = &stack;
    uint64_t checksum = 0;
    int round_index, k;

    if (!PyArg_ParseTuple(args, "iSi", &n, &edges_b, &rounds))
        return NULL;
    if (n <= 0 || rounds < 1) {
        PyErr_SetString(PyExc_ValueError, "bench_reach: bad n or rounds");
        return NULL;
    }
    if (PyBytes_AsStringAndSize(edges_b, &edges_data, &edges_size) < 0)
        return NULL;
    if (edges_size % 8 != 0) {
        PyErr_SetString(PyExc_ValueError, "bench_reach: bad edge buffer");
        return NULL;
    }
    edges = (const int32_t *)edges_data;
    nedges = edges_size / 8;
    for (e = 0; e < nedges * 2; e++) {
        if (edges[e] < 0 || edges[e] >= n) {
            PyErr_SetString(PyExc_ValueError, "bench_reach: edge out of range");
            return NULL;
        }
    }

    memset(p, 0, sizeof(*p));
    p->n = n;
    p->nw = (n + 63) >> 6;
    p->reach = PyMem_Malloc((size_t)n * p->nw * 8);
    p->trail_cap = 256;
    p->trail_off = PyMem_RawMalloc((size_t)p->trail_cap * 8);
    p->trail_old = PyMem_RawMalloc((size_t)p->trail_cap * 8);
    if (!p->reach || !p->trail_off || !p->trail_old) {
        PyMem_Free(p->reach);
        PyMem_RawFree(p->trail_off);
        PyMem_RawFree(p->trail_old);
        return PyErr_NoMemory();
    }

    {
        int failed = 0;
        Py_BEGIN_ALLOW_THREADS
        for (round_index = 0; round_index < rounds && !failed; round_index++) {
            memset(p->reach, 0, (size_t)n * p->nw * 8);
            p->trail_len = 0;
            for (e = 0; e < nedges; e++) {
                int inserted = add_edge(p, edges[e * 2], edges[e * 2 + 1]);
                if (inserted < 0) {
                    failed = 1;
                    break;
                }
                checksum += (uint64_t)(unsigned)inserted;
            }
            for (k = 0; k < n * p->nw; k++)
                checksum ^= p->reach[k];
            undo_to(p, 0);
            for (k = 0; k < n * p->nw; k++)
                checksum += p->reach[k]; /* must be all zeros again */
        }
        Py_END_ALLOW_THREADS

        PyMem_Free(p->reach);
        PyMem_RawFree(p->trail_off);
        PyMem_RawFree(p->trail_old);
        if (failed)
            return PyErr_NoMemory();
    }
    return PyLong_FromUnsignedLongLong(checksum);
}

/* ------------------------------------------------------------------ */
/* batched builtin atom masks, and the tables for inspection         */
/* ------------------------------------------------------------------ */

/* Spec codes: one int32 triple (code, a, b) per requested atom.
 * code 0 -- event trait: a = flag bit (0 read, 1 write, 2 fence,
 *           3 memory access), b = pair side (0 = u, 1 = v).
 * code 1 -- same address: a, b = pair sides for the two operands.
 * code 2 -- no builtin encoding: an all-zero row the caller fills in.
 */
static PyObject *
Problem_atom_masks(ProblemObject *self, PyObject *specs_b)
{
    char *specs_data;
    Py_ssize_t specs_size, num_specs, s;
    const int32_t *specs;
    const int32_t *pairs = self->pairs, *locid = self->locid;
    const uint8_t *flags = self->flags;
    const int pw = self->pw, num_pairs = self->num_pairs;
    PyObject *result;
    uint64_t *out;
    int p;

    if (!problem_ready(self) || PyBytes_AsStringAndSize(specs_b, &specs_data, &specs_size) < 0)
        return NULL;
    if (specs_size % 12 != 0) {
        PyErr_SetString(PyExc_ValueError, "atom_masks: bad spec buffer");
        return NULL;
    }
    specs = (const int32_t *)specs_data;
    num_specs = specs_size / 12;
    for (s = 0; s < num_specs; s++) {
        int code = specs[s * 3], a = specs[s * 3 + 1], b = specs[s * 3 + 2];
        if (code < 0 || code > 2 || a < 0 || b < 0 || b > 1 ||
            (code == 0 && a > 3) || (code == 1 && a > 1)) {
            PyErr_SetString(PyExc_ValueError, "atom_masks: bad spec");
            return NULL;
        }
    }

    result = PyBytes_FromStringAndSize(NULL, num_specs * (Py_ssize_t)pw * 8);
    if (!result)
        return NULL;
    out = (uint64_t *)PyBytes_AS_STRING(result);
    memset(out, 0, (size_t)num_specs * pw * 8);
    for (s = 0; s < num_specs; s++) {
        int code = specs[s * 3], a = specs[s * 3 + 1], b = specs[s * 3 + 2];
        uint64_t *row = out + (size_t)s * pw;
        if (code == 0) {
            for (p = 0; p < num_pairs; p++) {
                int ev = pairs[p * 2 + b];
                if ((flags[ev] >> a) & 1)
                    row[p >> 6] |= (uint64_t)1 << (p & 63);
            }
        } else if (code == 1) {
            for (p = 0; p < num_pairs; p++) {
                int la = locid[pairs[p * 2 + a]];
                if (la >= 0 && la == locid[pairs[p * 2 + b]])
                    row[p >> 6] |= (uint64_t)1 << (p & 63);
            }
        }
    }
    return result;
}

/* fields(): every table of the problem as bytes, plus its dimensions --
 * what the differential suite compares between construction paths. */
static PyObject *
Problem_fields(ProblemObject *self, PyObject *unused)
{
    if (!problem_ready(self))
        return NULL;
    return Py_BuildValue(
        "{s:i,s:i,s:i,s:y#,s:y#,s:y#,s:y#,s:y#,s:y#,s:y#,s:y#,s:y#,s:y#,"
        "s:y#,s:y#,s:y#,s:y#,s:y#}",
        "n", self->n, "num_pairs", self->num_pairs, "infeasible", self->infeasible,
        "plan_kind", (const char *)self->plan_kind, (Py_ssize_t)self->nplan,
        "plan_arg", (const char *)self->plan_arg, (Py_ssize_t)self->nplan * 4,
        "co_count", (const char *)self->co_count, (Py_ssize_t)self->nslots * 4,
        "co_len", (const char *)self->co_len, (Py_ssize_t)self->nslots * 4,
        "co_off", (const char *)self->co_off, (Py_ssize_t)self->nslots * 8,
        "co_flat", (const char *)self->co_flat, (Py_ssize_t)self->co_flat_len * 4,
        "loads", (const char *)self->loads, (Py_ssize_t)self->nloads * 4,
        "load_slot", (const char *)self->load_slot, (Py_ssize_t)self->nloads * 4,
        "rf_off", (const char *)self->rf_off, (Py_ssize_t)(self->nloads + 1) * 4,
        "rf_flat", (const char *)self->rf_flat,
        (Py_ssize_t)self->rf_off[self->nloads] * 4,
        "thread_of", (const char *)self->thread_of, (Py_ssize_t)self->n * 4,
        "po_before", (const char *)self->po_before, (Py_ssize_t)self->n * self->nw * 8,
        "pairs", (const char *)self->pairs, (Py_ssize_t)self->num_pairs * 8,
        "flags", (const char *)self->flags, (Py_ssize_t)self->n,
        "locid", (const char *)self->locid, (Py_ssize_t)self->n * 4);
}

/* ------------------------------------------------------------------ */
/* the native range profiler                                           */
/* ------------------------------------------------------------------ */

/* Profiler mirrors AdaptiveSpace.profile (repro/pipeline/adaptive.py)
 * over the enumeration's item encoding.  Per test: the R4/R2/R1 erasures
 * to a fixpoint over per-thread windows, conduit marking, one interned
 * signature per thread (memoised by the reduced thread's structure), and
 * the minimum over thread orders of the first-use relabelled profile.
 *
 * Every comparison the Python reference makes on nested tuples is made
 * here with memcmp on an order-preserving, prefix-free byte encoding:
 *
 *   row        -- (kind + 1, loc + 1, value + 1) per retained access
 *                 (kind R = 0, W = 1, as "R" < "W"), then 0;
 *   signature  -- per (mask, projected edges) group in mask order: 1, the
 *                 mask as big-endian words, (i + 1, j + 1) per edge, 0;
 *                 then a final 0.
 *
 * A candidate thread order encodes as row + signature per thread; all
 * candidates of one test have the same length, so memcmp orders them as
 * Python orders the Profile tuples.  The chosen profile is keyed by its
 * rows plus interned signature ids, and the profile table hands out dense
 * ids in first-seen order. */

#define PF_MAXEV 8     /* events per thread */
#define PF_MAXT 8      /* threads per test */
#define PF_MAXLOC 16   /* locations */
#define PF_MAXVAL 64   /* values per location (a uint64 set) */

/* byte string -> dense id (plus one int32 value per id, -1 until set),
 * open addressing over one key arena */
typedef struct {
    uint8_t *arena;
    int64_t arena_len, arena_cap;
    int64_t *key_off;
    int32_t *key_len;
    uint64_t *key_hash;
    int32_t *value;
    int32_t count, entry_cap;
    int32_t *slots;    /* id, or -1 when empty */
    int64_t mask;      /* slot count - 1 */
} KeyTable;

static uint64_t
fnv1a(const uint8_t *data, int32_t len)
{
    uint64_t h = 1469598103934665603ULL;
    int32_t i;
    for (i = 0; i < len; i++) {
        h ^= data[i];
        h *= 1099511628211ULL;
    }
    return h;
}

static int
kt_init(KeyTable *t)
{
    memset(t, 0, sizeof(*t));
    t->mask = 1023;
    t->slots = PyMem_Malloc((size_t)(t->mask + 1) * sizeof(int32_t));
    if (t->slots == NULL)
        return 0;
    memset(t->slots, 0xff, (size_t)(t->mask + 1) * sizeof(int32_t));
    return 1;
}

static void
kt_free(KeyTable *t)
{
    PyMem_Free(t->arena);
    PyMem_Free(t->key_off);
    PyMem_Free(t->key_len);
    PyMem_Free(t->key_hash);
    PyMem_Free(t->value);
    PyMem_Free(t->slots);
    memset(t, 0, sizeof(*t));
}

static const uint8_t *
kt_key(const KeyTable *t, int32_t id, int32_t *len)
{
    *len = t->key_len[id];
    return t->arena + t->key_off[id];
}

static int
kt_rehash(KeyTable *t)
{
    int64_t mask = (t->mask + 1) * 2 - 1;
    int32_t *slots = PyMem_Malloc((size_t)(mask + 1) * sizeof(int32_t));
    int32_t id;
    if (slots == NULL)
        return 0;
    memset(slots, 0xff, (size_t)(mask + 1) * sizeof(int32_t));
    for (id = 0; id < t->count; id++) {
        int64_t s = (int64_t)(t->key_hash[id] & (uint64_t)mask);
        while (slots[s] >= 0)
            s = (s + 1) & mask;
        slots[s] = id;
    }
    PyMem_Free(t->slots);
    t->slots = slots;
    t->mask = mask;
    return 1;
}

/* The id of key, added when new (*added = 1); -1 on allocation failure. */
static int32_t
kt_intern(KeyTable *t, const uint8_t *key, int32_t len, int *added)
{
    uint64_t h = fnv1a(key, len);
    int64_t s = (int64_t)(h & (uint64_t)t->mask);
    int32_t id;

    *added = 0;
    while ((id = t->slots[s]) >= 0) {
        if (t->key_hash[id] == h && t->key_len[id] == len &&
            memcmp(t->arena + t->key_off[id], key, (size_t)len) == 0)
            return id;
        s = (s + 1) & t->mask;
    }
    if (t->count == t->entry_cap) {
        int32_t cap = t->entry_cap ? t->entry_cap * 2 : 256;
        int64_t *off = PyMem_Realloc(t->key_off, (size_t)cap * sizeof(int64_t));
        int32_t *lens, *values;
        uint64_t *hashes;
        if (off == NULL)
            return -1;
        t->key_off = off;
        lens = PyMem_Realloc(t->key_len, (size_t)cap * sizeof(int32_t));
        if (lens == NULL)
            return -1;
        t->key_len = lens;
        hashes = PyMem_Realloc(t->key_hash, (size_t)cap * sizeof(uint64_t));
        if (hashes == NULL)
            return -1;
        t->key_hash = hashes;
        values = PyMem_Realloc(t->value, (size_t)cap * sizeof(int32_t));
        if (values == NULL)
            return -1;
        t->value = values;
        t->entry_cap = cap;
    }
    if (t->arena_len + len > t->arena_cap) {
        int64_t cap = t->arena_cap ? t->arena_cap * 2 : 4096;
        uint8_t *arena;
        while (cap < t->arena_len + len)
            cap *= 2;
        arena = PyMem_Realloc(t->arena, (size_t)cap);
        if (arena == NULL)
            return -1;
        t->arena = arena;
        t->arena_cap = cap;
    }
    memcpy(t->arena + t->arena_len, key, (size_t)len);
    id = t->count++;
    t->key_off[id] = t->arena_len;
    t->key_len[id] = len;
    t->key_hash[id] = h;
    t->value[id] = -1;
    t->arena_len += len;
    t->slots[s] = id;
    if ((int64_t)t->count * 2 > t->mask + 1 && !kt_rehash(t))
        return -1;
    *added = 1;
    return id;
}

typedef struct {
    PyObject_HEAD
    int num_models;
    int nwords;
    uint64_t *table;       /* 18 pair labels of nwords words each */
    KeyTable structs;      /* reduced-thread structure -> (value) signature id */
    KeyTable sigs;         /* signature encoding -> signature id */
    PyObject *sig_cache;   /* list: per signature id, None or (tuple, repr bytes) */
    PyObject *accesses[2][PF_MAXLOC][PF_MAXVAL]; /* (kind, loc, value) */
    char *text;            /* repr buffer */
    Py_ssize_t text_cap;
    KeyTable profiles;     /* profile key -> profile id */
    int32_t reported;      /* ids already handed out by profile_block */
    PyObject *kinds[2];    /* "R", "W" */
    uint8_t *buf[2];       /* candidate encodings (best, current) */
    int64_t buf_cap;
} ProfilerObject;

/* One test, as the walk fills it in. */
typedef struct {
    int nthreads;
    int len[PF_MAXT];
    int8_t kind[PF_MAXT][PF_MAXEV];
    int8_t loc[PF_MAXT][PF_MAXEV];
    int8_t val[PF_MAXT][PF_MAXEV];
} PfTest;

static void
Profiler_dealloc(ProfilerObject *self)
{
    int32_t i;
    PyMem_Free(self->table);
    kt_free(&self->structs);
    kt_free(&self->sigs);
    kt_free(&self->profiles);
    Py_XDECREF(self->sig_cache);
    for (i = 0; i < 2 * PF_MAXLOC * PF_MAXVAL; i++)
        Py_XDECREF((&self->accesses[0][0][0])[i]);
    PyMem_Free(self->text);
    Py_XDECREF(self->kinds[0]);
    Py_XDECREF(self->kinds[1]);
    PyMem_Free(self->buf[0]);
    PyMem_Free(self->buf[1]);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Profiler_init(ProfilerObject *self, PyObject *args, PyObject *kwds)
{
    int num_models;
    PyObject *table_b;
    if (kwds != NULL && PyDict_Size(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "Profiler takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "iS", &num_models, &table_b))
        return -1;
    if (self->table != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Profiler is already initialised");
        return -1;
    }
    if (num_models < 1) {
        PyErr_SetString(PyExc_ValueError, "Profiler: need at least one model");
        return -1;
    }
    self->num_models = num_models;
    self->nwords = (num_models + 63) >> 6;
    self->table = copy_bytes(table_b, (Py_ssize_t)18 * self->nwords * 8,
                             "Profiler table");
    if (self->table == NULL)
        return -1;
    self->kinds[0] = PyUnicode_InternFromString("R");
    self->kinds[1] = PyUnicode_InternFromString("W");
    self->sig_cache = PyList_New(0);
    if (self->kinds[0] == NULL || self->kinds[1] == NULL || self->sig_cache == NULL)
        return -1;
    if (!kt_init(&self->structs) || !kt_init(&self->sigs) ||
        !kt_init(&self->profiles)) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static int
mask_cmp(const uint64_t *a, const uint64_t *b, int nwords)
{
    int w;
    for (w = nwords - 1; w >= 0; w--) {
        if (a[w] != b[w])
            return a[w] < b[w] ? -1 : 1;
    }
    return 0;
}

/* The signature id of one reduced thread (AdaptiveSpace._thread_profile):
 * models grouped by their forced-edge vector over the thread's pairs, each
 * group's edges transitively closed and projected onto the retained
 * events, groups with equal projections merged.  -1 with an exception set
 * on failure. */
static int32_t
pf_signature(ProfilerObject *self, int n, const int8_t *kind,
             const int8_t *locid, const int8_t *retained)
{
    const int nwords = self->nwords, nm = self->num_models;
    uint64_t key = (uint64_t)n;
    int32_t slot;
    int pi[PF_MAXEV * PF_MAXEV], pj[PF_MAXEV * PF_MAXEV];
    const uint64_t *label[PF_MAXEV * PF_MAXEV];
    int npairs = 0, ngroups = 0, nmerged = 0, i, j, p, g, m;
    int remap[PF_MAXEV];
    uint32_t *gkey = NULL;
    uint64_t *gmask = NULL, *mmask = NULL;
    uint8_t *medges = NULL, *enc = NULL;
    int *mlen = NULL, *order = NULL;
    int32_t sig = -1;
    int64_t len = 0;
    int added;
    const int maxedges = PF_MAXEV * (PF_MAXEV - 1) / 2;

    for (i = 0; i < n; i++)
        key |= (uint64_t)(kind[i] | retained[i] << 2 | locid[i] << 3)
               << (4 + 7 * i);
    slot = kt_intern(&self->structs, (const uint8_t *)&key, sizeof(key), &added);
    if (slot < 0) {
        PyErr_NoMemory();
        return -1;
    }
    if (self->structs.value[slot] >= 0)
        return self->structs.value[slot];

    for (i = 0; i < n; i++) {
        for (j = i + 1; j < n; j++) {
            int same = kind[i] != PF_F && kind[j] != PF_F && locid[i] == locid[j];
            pi[npairs] = i;
            pj[npairs] = j;
            label[npairs] = self->table + ((kind[i] * 3 + kind[j]) * 2 + same) * nwords;
            npairs++;
        }
    }
    gkey = PyMem_Malloc((size_t)nm * sizeof(uint32_t));
    gmask = PyMem_Calloc((size_t)nm * nwords, sizeof(uint64_t));
    mmask = PyMem_Calloc((size_t)nm * nwords, sizeof(uint64_t));
    medges = PyMem_Malloc((size_t)nm * maxedges * 2);
    mlen = PyMem_Malloc((size_t)nm * sizeof(int));
    order = PyMem_Malloc((size_t)nm * sizeof(int));
    enc = PyMem_Malloc((size_t)nm * (2 + nwords * 8 + maxedges * 2) + 1);
    if (!gkey || !gmask || !mmask || !medges || !mlen || !order || !enc) {
        PyErr_NoMemory();
        goto done;
    }
    /* Group the models by their per-pair forced-edge vector. */
    for (m = 0; m < nm; m++) {
        uint32_t vector = 0;
        for (p = 0; p < npairs; p++) {
            if ((label[p][m >> 6] >> (m & 63)) & 1)
                vector |= (uint32_t)1 << p;
        }
        for (g = 0; g < ngroups && gkey[g] != vector; g++)
            ;
        if (g == ngroups)
            gkey[ngroups++] = vector;
        gmask[g * nwords + (m >> 6)] |= (uint64_t)1 << (m & 63);
    }
    for (i = 0, j = 0; i < n; i++)
        remap[i] = retained[i] ? j++ : -1;
    /* Per group: close the forced edges, project, merge equal projections. */
    for (g = 0; g < ngroups; g++) {
        uint32_t reach[PF_MAXEV];
        uint8_t edges[PF_MAXEV * (PF_MAXEV - 1)];
        int nedges = 0, k;
        for (i = 0; i < n; i++)
            reach[i] = 0;
        for (p = 0; p < npairs; p++) {
            if ((gkey[g] >> p) & 1)
                reach[pi[p]] |= (uint32_t)1 << pj[p];
        }
        for (i = n - 1; i >= 0; i--) {
            uint32_t closed = reach[i];
            for (j = i + 1; j < n; j++) {
                if ((reach[i] >> j) & 1)
                    closed |= reach[j];
            }
            reach[i] = closed;
        }
        for (i = 0; i < n; i++) {
            if (remap[i] < 0)
                continue;
            for (j = i + 1; j < n; j++) {
                if (remap[j] >= 0 && ((reach[i] >> j) & 1)) {
                    edges[nedges * 2] = (uint8_t)remap[i];
                    edges[nedges * 2 + 1] = (uint8_t)remap[j];
                    nedges++;
                }
            }
        }
        for (k = 0; k < nmerged; k++) {
            if (mlen[k] == nedges &&
                memcmp(medges + (size_t)k * maxedges * 2, edges, (size_t)nedges * 2) == 0)
                break;
        }
        if (k == nmerged) {
            mlen[k] = nedges;
            memcpy(medges + (size_t)k * maxedges * 2, edges, (size_t)nedges * 2);
            nmerged++;
        }
        for (i = 0; i < nwords; i++)
            mmask[k * nwords + i] |= gmask[g * nwords + i];
    }
    /* The signature lists the merged groups in mask order (the masks are
     * disjoint, so no two are equal). */
    for (g = 0; g < nmerged; g++) {
        int at = g;
        while (at > 0 && mask_cmp(mmask + order[at - 1] * nwords,
                                  mmask + g * nwords, nwords) > 0) {
            order[at] = order[at - 1];
            at--;
        }
        order[at] = g;
    }
    for (g = 0; g < nmerged; g++) {
        int k = order[g], w, b;
        enc[len++] = 1;
        for (w = nwords - 1; w >= 0; w--) {
            for (b = 7; b >= 0; b--)
                enc[len++] = (uint8_t)(mmask[k * nwords + w] >> (8 * b));
        }
        for (i = 0; i < mlen[k] * 2; i++)
            enc[len++] = (uint8_t)(medges[(size_t)k * maxedges * 2 + i] + 1);
        enc[len++] = 0;
    }
    enc[len++] = 0;
    sig = kt_intern(&self->sigs, enc, (int32_t)len, &added);
    if (sig < 0)
        PyErr_NoMemory();
    else
        self->structs.value[slot] = sig;
done:
    PyMem_Free(gkey);
    PyMem_Free(gmask);
    PyMem_Free(mmask);
    PyMem_Free(medges);
    PyMem_Free(mlen);
    PyMem_Free(order);
    PyMem_Free(enc);
    return sig;
}

/* The Python signature tuple of a signature id and its repr as bytes: a
 * borrowed (tuple, bytes) pair, built on first use. */
static PyObject *
pf_signature_entry(ProfilerObject *self, int32_t sig)
{
    const uint8_t *enc;
    int32_t len, pos = 0;
    PyObject *groups, *tuple = NULL, *text = NULL, *entry = NULL;
    const int nbytes = self->nwords * 8;

    while (PyList_GET_SIZE(self->sig_cache) <= sig) {
        if (PyList_Append(self->sig_cache, Py_None) < 0)
            return NULL;
    }
    entry = PyList_GET_ITEM(self->sig_cache, sig);
    if (entry != Py_None)
        return entry;
    entry = NULL;
    enc = kt_key(&self->sigs, sig, &len);
    groups = PyList_New(0);
    if (groups == NULL)
        return NULL;
    while (enc[pos] == 1) {
        PyObject *mask, *edges, *group;
        int start, k;
        pos++;
        mask = PyObject_CallMethod((PyObject *)&PyLong_Type, "from_bytes",
                                   "y#s", (const char *)enc + pos,
                                   (Py_ssize_t)nbytes, "big");
        pos += nbytes;
        start = pos;
        while (enc[pos] != 0)
            pos += 2;
        edges = PyTuple_New((pos - start) / 2);
        if (mask == NULL || edges == NULL) {
            Py_XDECREF(mask);
            Py_XDECREF(edges);
            goto fail;
        }
        for (k = 0; start + 2 * k < pos; k++) {
            PyObject *edge = Py_BuildValue("(ii)", enc[start + 2 * k] - 1,
                                           enc[start + 2 * k + 1] - 1);
            if (edge == NULL) {
                Py_DECREF(mask);
                Py_DECREF(edges);
                goto fail;
            }
            PyTuple_SET_ITEM(edges, k, edge);
        }
        pos++;
        group = PyTuple_Pack(2, mask, edges);
        Py_DECREF(mask);
        Py_DECREF(edges);
        if (group == NULL || PyList_Append(groups, group) < 0) {
            Py_XDECREF(group);
            goto fail;
        }
        Py_DECREF(group);
    }
    tuple = PyList_AsTuple(groups);
    if (tuple != NULL) {
        PyObject *repr = PyObject_Repr(tuple);
        if (repr != NULL)
            text = PyUnicode_AsASCIIString(repr);
        Py_XDECREF(repr);
    }
    if (text != NULL)
        entry = PyTuple_Pack(2, tuple, text);
    if (entry != NULL && PyList_SetItem(self->sig_cache, sig, entry) < 0)
        entry = NULL;
fail:
    Py_DECREF(groups);
    Py_XDECREF(tuple);
    Py_XDECREF(text);
    return entry;
}

/* The Profile tuple AdaptiveSpace.profile returns, rebuilt from its key. */
static PyObject *
pf_profile_object(ProfilerObject *self, int32_t id)
{
    int32_t len, pos = 1;
    const uint8_t *key = kt_key(&self->profiles, id, &len);
    int t, nthreads = key[0];
    PyObject *profile = PyTuple_New(nthreads);

    if (profile == NULL)
        return NULL;
    for (t = 0; t < nthreads; t++) {
        int start = pos, k;
        int32_t sig;
        PyObject *row, *sigobj, *thread;
        while (key[pos] != 0)
            pos += 3;
        row = PyTuple_New((pos - start) / 3);
        if (row == NULL)
            goto fail;
        for (k = 0; start + 3 * k < pos; k++) {
            const uint8_t *triple = key + start + 3 * k;
            PyObject **access =
                &self->accesses[triple[0] - 1][triple[1] - 1][triple[2] - 1];
            if (*access == NULL) {
                *access = Py_BuildValue("(Oii)", self->kinds[triple[0] - 1],
                                        triple[1] - 1, triple[2] - 1);
                if (*access == NULL) {
                    Py_DECREF(row);
                    goto fail;
                }
            }
            Py_INCREF(*access);
            PyTuple_SET_ITEM(row, k, *access);
        }
        pos++;
        memcpy(&sig, key + pos, 4);
        pos += 4;
        sigobj = pf_signature_entry(self, sig);
        if (sigobj == NULL) {
            Py_DECREF(row);
            goto fail;
        }
        thread = PyTuple_Pack(2, row, PyTuple_GET_ITEM(sigobj, 0));
        Py_DECREF(row);
        if (thread == NULL)
            goto fail;
        PyTuple_SET_ITEM(profile, t, thread);
    }
    return profile;
fail:
    Py_DECREF(profile);
    return NULL;
}

static int
pf_text_put(ProfilerObject *self, Py_ssize_t *len, const char *data, Py_ssize_t size)
{
    if (*len + size > self->text_cap) {
        Py_ssize_t cap = self->text_cap ? self->text_cap : 1024;
        char *grown;
        while (cap < *len + size)
            cap *= 2;
        grown = PyMem_Realloc(self->text, (size_t)cap);
        if (grown == NULL) {
            PyErr_NoMemory();
            return 0;
        }
        self->text = grown;
        self->text_cap = cap;
    }
    memcpy(self->text + *len, data, (size_t)size);
    *len += size;
    return 1;
}

/* repr() of a profile id's Profile tuple, as bytes, written straight from
 * its key (each signature's repr comes from Python, once). */
static PyObject *
pf_profile_text(ProfilerObject *self, int32_t id)
{
    int32_t keylen, pos = 1;
    const uint8_t *key = kt_key(&self->profiles, id, &keylen);
    int t, k, nthreads = key[0];
    Py_ssize_t len = 0;
    char item[64];

    if (!pf_text_put(self, &len, "(", 1))
        return NULL;
    for (t = 0; t < nthreads; t++) {
        int start = pos, count;
        int32_t sig;
        PyObject *sigtext;
        while (key[pos] != 0)
            pos += 3;
        count = (pos - start) / 3;
        if (!pf_text_put(self, &len, t ? ", ((" : "((", t ? 4 : 2))
            return NULL;
        for (k = 0; k < count; k++) {
            const uint8_t *triple = key + start + 3 * k;
            int size = snprintf(item, sizeof(item), "%s('%c', %d, %d)",
                                k ? ", " : "", triple[0] == 1 ? 'R' : 'W',
                                triple[1] - 1, triple[2] - 1);
            if (!pf_text_put(self, &len, item, size))
                return NULL;
        }
        if (!pf_text_put(self, &len, count == 1 ? ",), " : "), ", count == 1 ? 4 : 3))
            return NULL;
        pos++;
        memcpy(&sig, key + pos, 4);
        pos += 4;
        sigtext = pf_signature_entry(self, sig);
        if (sigtext == NULL)
            return NULL;
        sigtext = PyTuple_GET_ITEM(sigtext, 1);
        if (!pf_text_put(self, &len, PyBytes_AS_STRING(sigtext), PyBytes_GET_SIZE(sigtext)) ||
            !pf_text_put(self, &len, ")", 1))
            return NULL;
    }
    if (!pf_text_put(self, &len, nthreads == 1 ? ",)" : ")", nthreads == 1 ? 2 : 1))
        return NULL;
    return PyBytes_FromStringAndSize(self->text, len);
}

static int
pf_reserve(ProfilerObject *self, int64_t need)
{
    int i;
    if (need <= self->buf_cap)
        return 1;
    for (i = 0; i < 2; i++) {
        uint8_t *grown = PyMem_Realloc(self->buf[i], (size_t)need);
        if (grown == NULL)
            return 0;
        self->buf[i] = grown;
    }
    self->buf_cap = need;
    return 1;
}

/* First-use relabelling of the retained accesses in thread order `order`
 * (_relabel_threads): rows of (kind + 1, loc + 1, value + 1) triples, each
 * row closed by 0 and followed by the thread's signature encoding
 * (with_sigs) or its 4-byte signature id.  Returns the length written. */
static int64_t
pf_encode(ProfilerObject *self, const PfTest *kept, const int32_t *sig,
          const int *order, int nkept, int with_sigs, uint8_t *out)
{
    int8_t loc_id[PF_MAXLOC];
    int8_t seen_vals[PF_MAXLOC][PF_MAXT * PF_MAXEV];
    int nvals[PF_MAXLOC];
    int nlocs = 0, k, e;
    int64_t len = 0;

    memset(loc_id, -1, sizeof(loc_id));
    for (k = 0; k < nkept; k++) {
        int t = order[k];
        for (e = 0; e < kept->len[t]; e++) {
            int loc = kept->loc[t][e], val = kept->val[t][e], id, v = 0;
            if (loc_id[loc] < 0) {
                loc_id[loc] = (int8_t)nlocs;
                nvals[nlocs++] = 0;
            }
            id = loc_id[loc];
            if (val != 0) {
                for (v = 0; v < nvals[id] && seen_vals[id][v] != val; v++)
                    ;
                if (v == nvals[id])
                    seen_vals[id][nvals[id]++] = (int8_t)val;
                v++;
            }
            out[len++] = (uint8_t)(kept->kind[t][e] + 1);
            out[len++] = (uint8_t)(id + 1);
            out[len++] = (uint8_t)(v + 1);
        }
        out[len++] = 0;
        if (with_sigs) {
            int32_t siglen;
            const uint8_t *enc = kt_key(&self->sigs, sig[t], &siglen);
            memcpy(out + len, enc, (size_t)siglen);
            len += siglen;
        } else {
            memcpy(out + len, &sig[t], 4);
            len += 4;
        }
    }
    return len;
}

/* The profile id of one test; -1 with an exception set on failure. */
static int32_t
pf_profile_test(ProfilerObject *self, const PfTest *test, int *added)
{
    int lo[PF_MAXT], hi[PF_MAXT], alive[PF_MAXT];
    int nalive = test->nthreads, t, k, e, changed;
    uint64_t writes[PF_MAXLOC], reads[PF_MAXLOC];
    PfTest kept;
    int32_t sig[PF_MAXT];
    int order[PF_MAXT], best[PF_MAXT], c[PF_MAXT];
    int nkept = 0, i;
    int64_t need, len;
    uint8_t *cand, *top;

    for (t = 0; t < nalive; t++) {
        alive[t] = t;
        lo[t] = 0;
        hi[t] = test->len[t];
    }
    /* R4/R2/R1 to a fixpoint (reduce_core): each pass reads the write and
     * read sets as they stood when it began. */
    do {
        int next = 0;
        changed = 0;
        memset(writes, 0, sizeof(writes));
        memset(reads, 0, sizeof(reads));
        for (k = 0; k < nalive; k++) {
            t = alive[k];
            for (e = lo[t]; e < hi[t]; e++) {
                if (test->kind[t][e] == PF_W)
                    writes[(int)test->loc[t][e]] |= (uint64_t)1 << test->val[t][e];
                else if (test->kind[t][e] == PF_R)
                    reads[(int)test->loc[t][e]] |= (uint64_t)1 << test->val[t][e];
            }
        }
        for (k = 0; k < nalive; k++) {
            int first, last, fk, lk;
            t = alive[k];
            while (lo[t] < hi[t] && test->kind[t][lo[t]] == PF_F) {
                lo[t]++;
                changed = 1;
            }
            while (lo[t] < hi[t] && test->kind[t][hi[t] - 1] == PF_F) {
                hi[t]--;
                changed = 1;
            }
            if (lo[t] == hi[t]) {
                changed = 1;
                continue;
            }
            first = lo[t];
            last = hi[t] - 1;
            fk = test->kind[t][first];
            lk = test->kind[t][last];
            if (lk == PF_W &&
                !((reads[(int)test->loc[t][last]] >> test->val[t][last]) & 1)) {
                hi[t]--;
                changed = 1;
            } else if (fk == PF_W &&
                       !((reads[(int)test->loc[t][first]] >> test->val[t][first]) & 1) &&
                       !(reads[(int)test->loc[t][first]] & 1)) {
                lo[t]++;
                changed = 1;
            } else if (fk == PF_R && test->val[t][first] == 0 &&
                       writes[(int)test->loc[t][first]] == 0) {
                lo[t]++;
                changed = 1;
            } else if (lk == PF_R && test->val[t][last] == 0 &&
                       writes[(int)test->loc[t][last]] == 0) {
                hi[t]--;
                changed = 1;
            }
            if (lo[t] < hi[t])
                alive[next++] = t;
        }
        nalive = next;
    } while (changed);

    /* Conduits, then one signature per thread; threads with no retained
     * access drop out. */
    memset(writes, 0, sizeof(writes));
    for (k = 0; k < nalive; k++) {
        t = alive[k];
        for (e = lo[t]; e < hi[t]; e++) {
            if (test->kind[t][e] == PF_W)
                writes[(int)test->loc[t][e]] = 1;
        }
    }
    need = 1;
    for (k = 0; k < nalive; k++) {
        int8_t kind[PF_MAXEV], locid[PF_MAXEV], retained[PF_MAXEV];
        int8_t first_loc[PF_MAXLOC];
        int n = 0, nlocid = 0, nret = 0;
        int32_t siglen;
        t = alive[k];
        memset(first_loc, -1, sizeof(first_loc));
        for (e = lo[t]; e < hi[t]; e++, n++) {
            int ek = test->kind[t][e], loc = test->loc[t][e];
            kind[n] = (int8_t)ek;
            locid[n] = 0;
            if (ek != PF_F) {
                if (first_loc[loc] < 0)
                    first_loc[loc] = (int8_t)nlocid++;
                locid[n] = first_loc[loc];
            }
            retained[n] = !(ek == PF_F ||
                            (ek == PF_R && test->val[t][e] == 0 && !writes[loc]));
            if (retained[n]) {
                kept.kind[nkept][nret] = (int8_t)ek;
                kept.loc[nkept][nret] = (int8_t)loc;
                kept.val[nkept][nret] = test->val[t][e];
                nret++;
            }
        }
        if (nret == 0)
            continue;
        sig[nkept] = pf_signature(self, n, kind, locid, retained);
        if (sig[nkept] < 0)
            return -1;
        kt_key(&self->sigs, sig[nkept], &siglen);
        kept.len[nkept] = nret;
        need += 3 * nret + 1 + (siglen > 4 ? siglen : 4);
        nkept++;
    }
    if (!pf_reserve(self, need)) {
        PyErr_NoMemory();
        return -1;
    }
    /* The minimum over thread orders (Heap's algorithm visits them all). */
    for (i = 0; i < nkept; i++) {
        order[i] = best[i] = i;
        c[i] = 0;
    }
    top = self->buf[0];
    cand = self->buf[1];
    len = nkept > 1 ? pf_encode(self, &kept, sig, order, nkept, 1, top) : 0;
    i = 1;
    while (i < nkept) {
        if (c[i] < i) {
            int swap = (i & 1) ? c[i] : 0, held = order[swap];
            order[swap] = order[i];
            order[i] = held;
            pf_encode(self, &kept, sig, order, nkept, 1, cand);
            if (memcmp(cand, top, (size_t)len) < 0) {
                uint8_t *was = top;
                top = cand;
                cand = was;
                memcpy(best, order, sizeof(int) * (size_t)nkept);
            }
            c[i]++;
            i = 1;
        } else {
            c[i] = 0;
            i++;
        }
    }
    cand[0] = (uint8_t)nkept;
    len = 1 + pf_encode(self, &kept, sig, best, nkept, 0, cand + 1);
    {
        int32_t id = kt_intern(&self->profiles, cand, (int32_t)len, added);
        if (id < 0)
            PyErr_NoMemory();
        return id;
    }
}

static long
pf_item_int(PyObject *item, Py_ssize_t index, long limit, const char *what)
{
    long value = PyLong_AsLong(PyTuple_GET_ITEM(item, index));
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (value < 0 || value >= limit) {
        PyErr_Format(PyExc_ValueError, "Profiler: %s %ld out of range", what, value);
        return -1;
    }
    return value;
}

static PyObject *
Profiler_profile_block(ProfilerObject *self, PyObject *args)
{
    PyObject *templates, *choices, *tseq = NULL, *cseq = NULL;
    PyObject *ids = NULL, *fresh = NULL, *result = NULL;
    Py_ssize_t skip, count, produced = 0, t, e, r;
    PfTest test;
    int slot_t[PF_MAXT * PF_MAXEV], slot_e[PF_MAXT * PF_MAXEV];
    int radix[PF_MAXT * PF_MAXEV], digit[PF_MAXT * PF_MAXEV];
    int8_t values[PF_MAXT * PF_MAXEV][PF_MAXVAL];
    int nslots = 0, added;
    int32_t id;

    if (self->profiles.slots == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Profiler is not initialised");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "OOnn", &templates, &choices, &skip, &count))
        return NULL;
    if (skip < 0 || count < 0) {
        PyErr_SetString(PyExc_ValueError, "profile_block: negative skip or count");
        return NULL;
    }
    tseq = PySequence_Fast(templates, "profile_block: templates must be a sequence");
    if (tseq == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(tseq) > PF_MAXT) {
        PyErr_SetString(PyExc_ValueError, "Profiler: too many threads");
        goto done;
    }
    test.nthreads = (int)PySequence_Fast_GET_SIZE(tseq);
    for (t = 0; t < test.nthreads; t++) {
        PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(tseq, t),
                                        "profile_block: a thread must be a sequence");
        if (row == NULL)
            goto done;
        if (PySequence_Fast_GET_SIZE(row) > PF_MAXEV) {
            Py_DECREF(row);
            PyErr_SetString(PyExc_ValueError, "Profiler: thread too long");
            goto done;
        }
        test.len[t] = (int)PySequence_Fast_GET_SIZE(row);
        for (e = 0; e < test.len[t]; e++) {
            PyObject *item = PySequence_Fast_GET_ITEM(row, e), *kind;
            Py_UCS4 ch = 0;
            long loc = 0, val = 0;
            Py_ssize_t size = PyTuple_Check(item) ? PyTuple_GET_SIZE(item) : 0;
            if (size >= 2) {
                kind = PyTuple_GET_ITEM(item, 0);
                if (PyUnicode_Check(kind) && PyUnicode_GET_LENGTH(kind) == 1)
                    ch = PyUnicode_READ_CHAR(kind, 0);
            }
            if (!((ch == 'F' && size == 3) || (ch == 'W' && size == 3) ||
                  (ch == 'R' && (size == 2 || size == 3)))) {
                Py_DECREF(row);
                PyErr_SetString(PyExc_ValueError, "Profiler: malformed item");
                goto done;
            }
            if (ch != 'F') {
                loc = pf_item_int(item, 1, PF_MAXLOC, "location");
                if (loc >= 0 && size == 3)
                    val = pf_item_int(item, 2, PF_MAXVAL, "value");
                if (loc < 0 || val < 0) {
                    Py_DECREF(row);
                    goto done;
                }
                if (size == 2) {
                    slot_t[nslots] = (int)t;
                    slot_e[nslots] = (int)e;
                    nslots++;
                }
            }
            test.kind[t][e] = ch == 'R' ? PF_R : ch == 'W' ? PF_W : PF_F;
            test.loc[t][e] = (int8_t)loc;
            test.val[t][e] = (int8_t)val;
        }
        Py_DECREF(row);
    }
    cseq = PySequence_Fast(choices, "profile_block: choices must be a sequence");
    if (cseq == NULL)
        goto done;
    if (PySequence_Fast_GET_SIZE(cseq) != nslots) {
        PyErr_SetString(PyExc_ValueError,
                        "profile_block: one choice list per unvalued read");
        goto done;
    }
    for (r = 0; r < nslots; r++) {
        PyObject *options = PySequence_Fast(PySequence_Fast_GET_ITEM(cseq, r),
                                            "profile_block: choices must be sequences");
        Py_ssize_t k;
        if (options == NULL)
            goto done;
        radix[r] = (int)PySequence_Fast_GET_SIZE(options);
        if (radix[r] < 1 || radix[r] > PF_MAXVAL) {
            Py_DECREF(options);
            PyErr_SetString(PyExc_ValueError, "profile_block: bad choice list");
            goto done;
        }
        for (k = 0; k < radix[r]; k++) {
            long value = PyLong_AsLong(PySequence_Fast_GET_ITEM(options, k));
            if (value < 0 || value >= PF_MAXVAL) {
                Py_DECREF(options);
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_ValueError, "Profiler: value out of range");
                goto done;
            }
            values[r][k] = (int8_t)value;
        }
        Py_DECREF(options);
    }
    /* The outcome odometer, in itertools.product order (last read fastest),
     * positioned at outcome `skip`. */
    for (r = nslots - 1; r >= 0; r--) {
        digit[r] = (int)(skip % radix[r]);
        skip /= radix[r];
    }
    ids = PyList_New(0);
    if (ids == NULL)
        goto done;
    while (skip == 0 && produced < count) {
        PyObject *value;
        for (r = 0; r < nslots; r++)
            test.val[slot_t[r]][slot_e[r]] = values[r][digit[r]];
        id = pf_profile_test(self, &test, &added);
        if (id < 0)
            goto done;
        value = PyLong_FromLong(id);
        if (value == NULL || PyList_Append(ids, value) < 0) {
            Py_XDECREF(value);
            goto done;
        }
        Py_DECREF(value);
        produced++;
        for (r = nslots - 1; r >= 0; r--) {
            if (++digit[r] < radix[r])
                break;
            digit[r] = 0;
        }
        if (r < 0)
            break;
    }
    fresh = PyList_New(0);
    if (fresh == NULL)
        goto done;
    /* Every id not yet handed out, so a failed call loses none. */
    for (id = self->reported; id < self->profiles.count; id++) {
        PyObject *text = pf_profile_text(self, id);
        if (text == NULL || PyList_Append(fresh, text) < 0) {
            Py_XDECREF(text);
            goto done;
        }
        Py_DECREF(text);
    }
    result = PyTuple_Pack(2, ids, fresh);
    if (result != NULL)
        self->reported = self->profiles.count;
done:
    Py_XDECREF(tseq);
    Py_XDECREF(cseq);
    Py_XDECREF(ids);
    Py_XDECREF(fresh);
    return result;
}

static PyObject *
Profiler_profile(ProfilerObject *self, PyObject *args)
{
    int id;
    if (!PyArg_ParseTuple(args, "i", &id))
        return NULL;
    if (id < 0 || id >= self->profiles.count) {
        PyErr_SetString(PyExc_IndexError, "Profiler.profile: unknown profile id");
        return NULL;
    }
    return pf_profile_object(self, id);
}

/* ------------------------------------------------------------------ */
/* type and module boilerplate                                         */
/* ------------------------------------------------------------------ */

static PyMethodDef Problem_methods[] = {
    {"from_items", (PyCFunction)Problem_from_items, METH_O | METH_CLASS,
     "from_items(items) -> the Problem of an enumerated test, built from its\n"
     "abstract item tuples (one per thread of (kind, location, value))"},
    {"search", (PyCFunction)Problem_search, METH_VARARGS,
     "search(po_edges_bytes) -> None | (rf_tuple, co_choice_tuple)"},
    {"allowed", (PyCFunction)Problem_allowed, METH_O,
     "allowed(mask_bytes) -> whether some execution honours the po pairs\n"
     "set in the pw-word little-endian mask"},
    {"atom_masks", (PyCFunction)Problem_atom_masks, METH_O,
     "atom_masks(specs_bytes) -> concatenated pw*8-byte builtin atom masks"},
    {"fields", (PyCFunction)Problem_fields, METH_NOARGS,
     "fields() -> dict of the problem's dimensions and tables (bytes)"},
    {"eval_program", (PyCFunction)Problem_eval_program, METH_VARARGS,
     "eval_program(codes_bytes, num_instructions, atoms_bytes, outputs_bytes)\n"
     "-> the int32-indexed output registers' masks as ints, in request order;\n"
     "atoms_bytes holds every atom's pw-word truth vector, in atom order"},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Problem_members[] = {
    {"n", T_INT, offsetof(ProblemObject, n), READONLY, "events"},
    {"nw", T_INT, offsetof(ProblemObject, nw), READONLY, "words per event bitset"},
    {"num_pairs", T_INT, offsetof(ProblemObject, num_pairs), READONLY,
     "same-thread program-order pairs"},
    {"pw", T_INT, offsetof(ProblemObject, pw), READONLY, "words per pair mask"},
    {"infeasible", T_BOOL, offsetof(ProblemObject, infeasible), READONLY,
     "some load has no read-from candidate"},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject ProblemType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.native._kernelmod.Problem",
    .tp_basicsize = sizeof(ProblemObject),
    .tp_dealloc = (destructor)Problem_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A flattened kernel search problem over word buffers.",
    .tp_methods = Problem_methods,
    .tp_members = Problem_members,
    .tp_init = (initproc)Problem_init,
    .tp_new = PyType_GenericNew,
};

static PyMethodDef Profiler_methods[] = {
    {"profile_block", (PyCFunction)Profiler_profile_block, METH_VARARGS,
     "profile_block(templates, choices, skip, count) -> (ids, fresh)\n"
     "Profile up to count outcomes of one shape combination, from outcome\n"
     "skip on, in itertools.product order: the profile id of each test, and\n"
     "repr(profile) as bytes for every id not handed out before, in id order."},
    {"profile", (PyCFunction)Profiler_profile, METH_VARARGS,
     "profile(id) -> the Profile tuple of a known profile id"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject ProfilerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.native._kernelmod.Profiler",
    .tp_basicsize = sizeof(ProfilerObject),
    .tp_dealloc = (destructor)Profiler_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Profiler(num_models, table_bytes): the adaptive range profiler\n"
              "of one tabulated model space.",
    .tp_methods = Profiler_methods,
    .tp_init = (initproc)Profiler_init,
    .tp_new = PyType_GenericNew,
};

static PyMethodDef kernelmod_methods[] = {
    {"bench_reach", kernelmod_bench_reach, METH_VARARGS,
     "bench_reach(n, edges_bytes, rounds) -> checksum (add/undo micro-bench)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernelmod_module = {
    PyModuleDef_HEAD_INIT,
    "repro.native._kernelmod",
    "Word-array native checking kernel (C fast path).",
    -1,
    kernelmod_methods,
};

PyMODINIT_FUNC
PyInit__kernelmod(void)
{
    PyObject *module;
    if (PyType_Ready(&ProblemType) < 0 || PyType_Ready(&ProfilerType) < 0)
        return NULL;
    module = PyModule_Create(&kernelmod_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&ProblemType);
    if (PyModule_AddObject(module, "Problem", (PyObject *)&ProblemType) < 0) {
        Py_DECREF(&ProblemType);
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&ProfilerType);
    if (PyModule_AddObject(module, "Profiler", (PyObject *)&ProfilerType) < 0) {
        Py_DECREF(&ProfilerType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
