/* Word-array native checking kernel.
 *
 * C fast path for the explicit checker's hot loop.  The search mirrors the
 * bigint reference kernel (KernelSearch and ReachabilityKernel in
 * repro/checker/kernel.py) decision for decision, and the mask evaluator
 * runs the repro/native/flatprog.py encoding.  The differential suite
 * (tests/native/test_kernel_differential.py) holds both bit-identical to
 * the bigint kernel, across the 64-bit word boundaries too:
 *
 *   Problem        -- one execution's flattened search problem, built from
 *                     repro.native.problem.KernelProblem: the decision
 *                     plan, coherence orders, read-from candidates and
 *                     program order as contiguous int32/uint64 buffers.
 *   Problem.search -- the decide/propagate/undo backtracking search with
 *                     incremental word-array reachability, O(words) undo
 *                     via a (word-offset, old-word) trail, and cycle /
 *                     anti-program-order pruning.  Returns the first
 *                     witness found (rf sources + chosen coherence order
 *                     index per slot) or None -- iteration order matches
 *                     the bigint kernel exactly, so witnesses are
 *                     bit-identical across backends.
 *   Problem.eval_program -- evaluates a flattened ModelIR mask program
 *                     (repro.native.flatprog encoding) over the po-pair
 *                     word universe, atoms supplied as precomputed
 *                     little-endian word buffers.
 *   bench_reach    -- reachability add/undo micro-benchmark hook.
 *
 * Bitsets are little-endian arrays of 64-bit words: bit i lives in word
 * i >> 6 at position i & 63, byte-identical to int.to_bytes(.., "little").
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

#define OP_TRUE 0
#define OP_FALSE 1
#define OP_ATOM 2
#define OP_NATOM 3
#define OP_AND 4
#define OP_OR 5

#define RF_INITIAL (-1)

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
    PyMem_Free(self->reach);
    PyMem_RawFree(self->trail_off);
    PyMem_RawFree(self->trail_old);
    PyMem_Free(self->rf_choice);
    PyMem_Free(self->co_choice);
    PyMem_Free(self->co_position);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Problem_init(ProblemObject *self, PyObject *args, PyObject *kwds)
{
    int n, num_pairs, nloads, nplan, nslots;
    PyObject *plan_kind_b, *plan_arg_b, *co_count_b, *co_len_b, *co_off_b;
    PyObject *co_flat_b, *loads_b, *load_slot_b, *rf_off_b, *rf_flat_b;
    PyObject *thread_of_b, *po_before_b;
    int i;

    if (kwds != NULL && PyDict_Size(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "Problem takes no keyword arguments");
        return -1;
    }
    if (!PyArg_ParseTuple(args, "iiiiiSSSSSSSSSSSS", &n, &num_pairs, &nloads,
                          &nplan, &nslots, &plan_kind_b, &plan_arg_b,
                          &co_count_b, &co_len_b, &co_off_b, &co_flat_b,
                          &loads_b, &load_slot_b, &rf_off_b, &rf_flat_b,
                          &thread_of_b, &po_before_b))
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
        PyErr_NoMemory();
        return -1;
    }
    return 0;
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

static PyObject *
Problem_search(ProblemObject *self, PyObject *args)
{
    PyObject *edges_b;
    char *edges_data;
    Py_ssize_t edges_size;
    const int32_t *edges;
    Py_ssize_t nedges, e;
    int found = 1;
    int i;

    if (!PyArg_ParseTuple(args, "S", &edges_b))
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

    memset(self->reach, 0, (size_t)self->n * self->nw * 8);
    self->trail_len = 0;
    for (i = 0; i < self->nloads; i++)
        self->rf_choice[i] = RF_INITIAL;

    Py_BEGIN_ALLOW_THREADS
    for (e = 0; e < nedges; e++) {
        int inserted = add_edge(self, edges[e * 2], edges[e * 2 + 1]);
        if (inserted != 1) {
            found = inserted; /* 0: po alone is cyclic (unreachable) */
            break;
        }
    }
    if (found == 1)
        found = do_search(self, 0);
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

/* ------------------------------------------------------------------ */
/* flattened mask-program evaluation                                   */
/* ------------------------------------------------------------------ */

static PyObject *
Problem_eval_program(ProblemObject *self, PyObject *args)
{
    PyObject *codes_b, *atoms_seq, *atoms = NULL, *result = NULL;
    PyObject *outputs_b = NULL;
    int num_instructions;
    char *codes_data;
    Py_ssize_t codes_size, natoms, a;
    const int32_t *codes;
    const int32_t *outputs = NULL;
    Py_ssize_t noutputs = 0;
    int64_t ncodes, position;
    const int pw = self->pw;
    uint64_t tail_last;
    uint64_t *registers = NULL;
    const uint64_t **atom_words = NULL;
    int r, k;

    if (!PyArg_ParseTuple(args, "SiO|S", &codes_b, &num_instructions, &atoms_seq,
                          &outputs_b))
        return NULL;
    if (PyBytes_AsStringAndSize(codes_b, &codes_data, &codes_size) < 0)
        return NULL;
    if (codes_size % 4 != 0 || num_instructions < 1) {
        PyErr_SetString(PyExc_ValueError, "eval_program: bad code buffer");
        return NULL;
    }
    codes = (const int32_t *)codes_data;
    ncodes = codes_size / 4;
    if (outputs_b != NULL) {
        char *outputs_data;
        Py_ssize_t outputs_size;
        if (PyBytes_AsStringAndSize(outputs_b, &outputs_data, &outputs_size) < 0)
            return NULL;
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
    }

    atoms = PySequence_Fast(atoms_seq, "eval_program: atoms must be a sequence");
    if (atoms == NULL)
        return NULL;
    natoms = PySequence_Fast_GET_SIZE(atoms);
    atom_words = PyMem_Malloc((size_t)(natoms ? natoms : 1) * sizeof(uint64_t *));
    registers = PyMem_Malloc((size_t)num_instructions * pw * 8);
    if (atom_words == NULL || registers == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (a = 0; a < natoms; a++) {
        PyObject *item = PySequence_Fast_GET_ITEM(atoms, a);
        char *data;
        Py_ssize_t size;
        if (PyBytes_AsStringAndSize(item, &data, &size) < 0)
            goto done;
        if (size != (Py_ssize_t)pw * 8) {
            PyErr_SetString(PyExc_ValueError, "eval_program: bad atom buffer");
            goto done;
        }
        atom_words[a] = (const uint64_t *)data;
    }

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
            if (op == OP_ATOM) {
                memcpy(reg, atom_words[operand], (size_t)pw * 8);
            } else {
                /* complement stays inside the pair universe */
                for (k = 0; k < pw - 1; k++)
                    reg[k] = ~atom_words[operand][k];
                reg[pw - 1] = ~atom_words[operand][pw - 1] & tail_last;
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
    if (outputs == NULL) {
        result = PyBytes_FromStringAndSize(
            (const char *)(registers + (size_t)(num_instructions - 1) * pw),
            (Py_ssize_t)pw * 8);
    } else {
        /* concatenate the requested output registers, in request order */
        result = PyBytes_FromStringAndSize(NULL, noutputs * (Py_ssize_t)pw * 8);
        if (result != NULL) {
            char *out = PyBytes_AS_STRING(result);
            for (a = 0; a < noutputs; a++)
                memcpy(out + (size_t)a * pw * 8,
                       registers + (size_t)outputs[a] * pw, (size_t)pw * 8);
        }
    }
    goto done;

truncated:
    PyErr_SetString(PyExc_ValueError, "eval_program: truncated code buffer");
done:
    PyMem_Free(registers);
    PyMem_Free(atom_words);
    Py_XDECREF(atoms);
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
/* batched builtin atom masks                                          */
/* ------------------------------------------------------------------ */

/* Spec codes: one int32 triple (code, a, b) per requested atom.
 * code 0 -- event trait: a = flag bit (0 read, 1 write, 2 fence,
 *           3 memory access), b = pair side (0 = u, 1 = v).
 * code 1 -- same address: a, b = pair sides for the two operands.
 */
static PyObject *
kernelmod_atom_masks(PyObject *module, PyObject *args)
{
    int num_events, num_pairs, pw;
    PyObject *pairs_b, *flags_b, *locid_b, *specs_b;
    char *pairs_data, *flags_data, *locid_data, *specs_data;
    Py_ssize_t pairs_size, flags_size, locid_size, specs_size;
    const int32_t *pairs, *locid, *specs;
    const uint8_t *flags;
    Py_ssize_t num_specs, s;
    PyObject *result;
    uint64_t *out;
    int p;

    if (!PyArg_ParseTuple(args, "iiiSSSS", &num_events, &num_pairs, &pw,
                          &pairs_b, &flags_b, &locid_b, &specs_b))
        return NULL;
    if (PyBytes_AsStringAndSize(pairs_b, &pairs_data, &pairs_size) < 0 ||
        PyBytes_AsStringAndSize(flags_b, &flags_data, &flags_size) < 0 ||
        PyBytes_AsStringAndSize(locid_b, &locid_data, &locid_size) < 0 ||
        PyBytes_AsStringAndSize(specs_b, &specs_data, &specs_size) < 0)
        return NULL;
    if (num_events < 0 || num_pairs < 0 || pw < 1 ||
        (Py_ssize_t)num_pairs > (Py_ssize_t)pw * 64 ||
        pairs_size != (Py_ssize_t)num_pairs * 8 ||
        flags_size != (Py_ssize_t)num_events ||
        locid_size != (Py_ssize_t)num_events * 4 ||
        specs_size % 12 != 0) {
        PyErr_SetString(PyExc_ValueError, "atom_masks: inconsistent buffers");
        return NULL;
    }
    pairs = (const int32_t *)pairs_data;
    flags = (const uint8_t *)flags_data;
    locid = (const int32_t *)locid_data;
    specs = (const int32_t *)specs_data;
    num_specs = specs_size / 12;
    for (p = 0; p < num_pairs * 2; p++) {
        if (pairs[p] < 0 || pairs[p] >= num_events) {
            PyErr_SetString(PyExc_ValueError, "atom_masks: pair out of range");
            return NULL;
        }
    }
    for (s = 0; s < num_specs; s++) {
        int code = specs[s * 3], a = specs[s * 3 + 1], b = specs[s * 3 + 2];
        if (code < 0 || code > 1 || a < 0 || b < 0 || b > 1 ||
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
        } else {
            for (p = 0; p < num_pairs; p++) {
                int la = locid[pairs[p * 2 + a]];
                if (la >= 0 && la == locid[pairs[p * 2 + b]])
                    row[p >> 6] |= (uint64_t)1 << (p & 63);
            }
        }
    }
    return result;
}

/* ------------------------------------------------------------------ */
/* type and module boilerplate                                         */
/* ------------------------------------------------------------------ */

static PyMethodDef Problem_methods[] = {
    {"search", (PyCFunction)Problem_search, METH_VARARGS,
     "search(po_edges_bytes) -> None | (rf_tuple, co_choice_tuple)"},
    {"eval_program", (PyCFunction)Problem_eval_program, METH_VARARGS,
     "eval_program(codes_bytes, num_instructions, atom_buffers[, outputs_bytes])\n"
     "-> mask bytes (the last register, or the int32-indexed output\n"
     "registers concatenated in request order)"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject ProblemType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.native._kernelmod.Problem",
    .tp_basicsize = sizeof(ProblemObject),
    .tp_dealloc = (destructor)Problem_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A flattened kernel search problem over word buffers.",
    .tp_methods = Problem_methods,
    .tp_init = (initproc)Problem_init,
    .tp_new = PyType_GenericNew,
};

static PyMethodDef kernelmod_methods[] = {
    {"bench_reach", kernelmod_bench_reach, METH_VARARGS,
     "bench_reach(n, edges_bytes, rounds) -> checksum (add/undo micro-bench)"},
    {"atom_masks", kernelmod_atom_masks, METH_VARARGS,
     "atom_masks(num_events, num_pairs, pw, pairs_bytes, flags_bytes,\n"
     "locid_bytes, specs_bytes) -> concatenated pw*8-byte truth masks"},
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
    if (PyType_Ready(&ProblemType) < 0)
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
    return module;
}
