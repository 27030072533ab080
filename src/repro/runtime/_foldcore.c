/* The compiled fold core of the static plan (built by foldcore.py).
 *
 * Five loops of the runtime, run on the executor's and engines' own state:
 *
 *   Walk           the Cover stage's row loop, StreamingExecutor._cover, for
 *                  executors whose units are all compiled and static (driven
 *                  by runtime/cover.py): group lookup, covering ranges,
 *                  window arming (_open_windows), the inert skip, segments,
 *                  and at each close each group's segment folded in place
 *                  where its engine folds every class deferred
 *                  (fold_direct), else handed to its process_block_run --
 *                  Python runs only to open a group;
 *   fold_deferred  the per-row loop of MultiWindowLinearEngine._fold_segment
 *                  where every class of the unit folds deferred (scalar
 *                  SEQ(P, K+)), fold_direct's loop too;
 *   fold_run       MultiWindowLinearEngine._fold_run, the run fold of every
 *                  eager or vector class, the optimizer's runs and the
 *                  per-event fast path: every sharing column, scalar or
 *                  vector (PythonKernelBackend is its reference);
 *   close_scalar   the readout of MultiWindowLinearEngine.close_window for a
 *                  scalar unit with no split column and no event store;
 *   sweep_unit     the Close/Emit stage's sweep of such a unit (driven by
 *                  runtime/close.py): readouts, evictions, metrics, totals
 *                  and each closed window's one row, a WindowResult;
 *
 * their one helper, settle_kleene (repro.core.kernels); assemble_events, the
 * Events of a decoded frame (events/columnar.py); group_codes, an
 * array('q') key column's codes (events/block.py); the column kernels,
 * which return facts about a typed column and leave every decision and
 * error message to Python: time_scan and code_scan (a frame's parse, the
 * row slots, the order checks of runtime/reorder.py), late_scan
 * (Lateness.offer_block's cuts), gather (EventBlock.select) -- none keeps
 * scratch that grows with the rows; and memory_units, the close sweep's
 * memory sample (runtime/close.py).  Each dict is
 * read and written in the order the Python reference does it, so insertion
 * order -- and the snapshot bytes -- match; each float operation is the
 * reference's, in its association, and -ffp-contract=off keeps the compiler
 * from fusing a multiply into an add (one rounding where Python has two).
 *
 * The _DeferredKleene counters (rows, cells, entries), a MutableAggregate's
 * count and measures, a streaming _Group's and _WindowMeta's fields and the
 * rows a close builds are object __slots__:
 * the core takes their offsets from the class once and reads and writes
 * them in place, without the attribute protocol.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <math.h>

#define EXACT_LIMIT 9007199254740992.0 /* 2**53, kernels._EXACT_LIMIT */

static double powers[54];
static unsigned long long settles = 0, settled_steps = 0;
static PyObject *zero = NULL, *array_type = NULL, *typecode = NULL;
static PyObject *templates[3]; /* array('d' / 'q' / 'I') of one 0 */

/* ``total`` after ``steps`` (>= 0) Kleene rows, each ``total += prefix +
 * total``: the closed form when it lands below 2**53, else the iterated
 * fold. */
static double
settle(double prefix, double total, long long steps)
{
    if (steps <= 53) {
        double power = powers[steps];
        double settled = total * power + prefix * (power - 1.0);
        if (settled < EXACT_LIMIT) {
            return settled;
        }
    }
    for (long long step = 0; step < steps; step++) {
        total += prefix + total;
    }
    return total;
}

static PyObject *
settle_kleene(PyObject *Py_UNUSED(module), PyObject *args)
{
    double prefix, total;
    long long steps;
    if (!PyArg_ParseTuple(args, "ddL:settle_kleene", &prefix, &total, &steps)) {
        return NULL;
    }
    if (steps < 0) {
        PyErr_SetString(PyExc_ValueError, "settle_kleene: steps must be >= 0");
        return NULL;
    }
    return PyFloat_FromDouble(settle(prefix, total, steps));
}

static PyObject *
settle_counts(PyObject *Py_UNUSED(module), PyObject *Py_UNUSED(args))
{
    return Py_BuildValue("KK", settles, settled_steps);
}

/* ------------------------------------------------------------------ */
/* Object slots                                                        */
/* ------------------------------------------------------------------ */

/* The __slots__ of a class the core reads in place: their offsets, taken
 * from the class once, not the attribute protocol. */
typedef struct {
    PyTypeObject *type;
    int count;
    const char *names[8];
    Py_ssize_t offsets[8];
} layout;

/* A _DeferredKleene and a streaming _Group. */
static layout counters = {NULL, 3, {"rows", "cells", "entries"}, {0}};
enum { ROWS, CELLS, ENTRIES };
static layout groups = {NULL, 7, {"engine", "metas", "fed", "last_arrival", "ops_reported",
                                  "sort_key", "burst"}, {0}};
enum { ENGINE, METAS, FED, ARRIVAL, REPORTED, SORT_KEY, BURST };

static int
bind(layout *of, PyTypeObject *type)
{
    Py_ssize_t found[8];
    for (int which = 0; which < of->count; which++) {
        PyObject *member = PyObject_GetAttrString((PyObject *)type, of->names[which]);
        if (member == NULL) {
            return -1;
        }
        int slot = Py_IS_TYPE(member, &PyMemberDescr_Type) && PyDescr_TYPE(member) == type
                   && ((PyMemberDescrObject *)member)->d_member->type == T_OBJECT_EX;
        if (slot) {
            found[which] = ((PyMemberDescrObject *)member)->d_member->offset;
        }
        Py_DECREF(member);
        if (!slot) {
            PyErr_Format(PyExc_TypeError, "fold core: %s.%s is not an object slot",
                         type->tp_name, of->names[which]);
            return -1;
        }
    }
    Py_INCREF(type);
    Py_XSETREF(of->type, type);
    memcpy(of->offsets, found, sizeof(Py_ssize_t) * of->count);
    return 0;
}

/* Where ``object``'s slot ``which`` of ``of`` lives (set), or NULL. */
static PyObject **
member(layout *of, PyObject *object, int which)
{
    if (Py_TYPE(object) != of->type && bind(of, Py_TYPE(object)) < 0) {
        return NULL;
    }
    PyObject **at = (PyObject **)((char *)object + of->offsets[which]);
    if (*at == NULL) {
        PyErr_Format(PyExc_AttributeError, "fold core: %s is unset", of->names[which]);
        return NULL;
    }
    return at;
}

/* The int in ``counter``'s slot ``which`` (borrowed), or NULL. */
static PyObject **
slot(PyObject *counter, int which)
{
    PyObject **at = member(&counters, counter, which);
    if (at != NULL && !PyLong_CheckExact(*at)) {
        PyErr_SetString(PyExc_TypeError, "fold core: a deferred counter is not an int");
        return NULL;
    }
    return at;
}

static int
get(PyObject *counter, int which, long long *value)
{
    PyObject **at = slot(counter, which);
    if (at == NULL) {
        return -1;
    }
    *value = PyLong_AsLongLong(*at);
    return (*value == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* ``*at += delta`` for the int in an object slot. */
static int
bump(PyObject **at, long long delta)
{
    long long value = PyLong_AsLongLong(*at);
    if (value == -1 && PyErr_Occurred()) {
        return -1;
    }
    PyObject *boxed = PyLong_FromLongLong(value + delta);
    if (boxed == NULL) {
        return -1;
    }
    Py_SETREF(*at, boxed);
    return 0;
}

static int
add(PyObject *counter, int which, long long delta)
{
    if (delta == 0) {
        return 0;
    }
    PyObject **at = slot(counter, which);
    return at == NULL ? -1 : bump(at, delta);
}

/* ``object.<name>`` as an int (attribute protocol: engine counters). */
static int
get_long(PyObject *object, PyObject *name, long long *out)
{
    PyObject *value = PyObject_GetAttr(object, name);
    *out = value == NULL ? -1 : PyLong_AsLongLong(value);
    Py_XDECREF(value);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
set_long(PyObject *object, PyObject *name, long long value)
{
    PyObject *boxed = PyLong_FromLongLong(value);
    int status = boxed == NULL ? -1 : PyObject_SetAttr(object, name, boxed);
    Py_XDECREF(boxed);
    return status;
}

/* ``*out = object.<name> + delta``, stored back. */
static int
step_long(PyObject *object, PyObject *name, long long delta, long long *out)
{
    return get_long(object, name, out) < 0 ? -1 : set_long(object, name, *out += delta);
}

/* ------------------------------------------------------------------ */
/* Dict helpers                                                        */
/* ------------------------------------------------------------------ */

static int
as_double(PyObject *value, double *out)
{
    *out = PyFloat_AsDouble(value);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* ``*out = target[key]`` as a double, KeyError if absent. */
static int
item(PyObject *target, PyObject *key, double *out)
{
    PyObject *value = PyDict_GetItemWithError(target, key);
    if (value == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_SetObject(PyExc_KeyError, key);
        }
        return -1;
    }
    return as_double(value, out);
}

/* ``target[key] = value``, consuming ``value``. */
static int
put(PyObject *target, PyObject *key, PyObject *value)
{
    if (value == NULL) {
        return -1;
    }
    int status = PyDict_SetItem(target, key, value);
    Py_DECREF(value);
    return status;
}

/* ``kleene_map[index] = settle_kleene(prefix, kleene_map.get(index, 0.0),
 * steps)``, as the reference settles one cell. */
static int
settle_cell(PyObject *kleene_map, PyObject *index, double prefix, long long steps)
{
    double total = 0.0;
    if (steps < 0) {
        PyErr_SetString(PyExc_ValueError, "fold core: a cell stamped past its counter");
        return -1;
    }
    PyObject *owed = PyDict_GetItemWithError(kleene_map, index);
    if (owed == NULL ? PyErr_Occurred() != NULL : as_double(owed, &total) < 0) {
        return -1;
    }
    settles += 1;
    settled_steps += (unsigned long long)steps;
    return put(kleene_map, index, PyFloat_FromDouble(settle(prefix, total, steps)));
}

/* A _DeferredClass: (armed, prefix_map, kleene_map, kleene counter). */
static int
unpack(PyObject *state, PyObject **armed, PyObject **prefix_map, PyObject **kleene_map,
       PyObject **kleene)
{
    if (!PyTuple_Check(state) || PyTuple_GET_SIZE(state) != 4) {
        PyErr_SetString(PyExc_TypeError, "fold core: malformed deferred class state");
        return -1;
    }
    *armed = PyTuple_GET_ITEM(state, 0);
    *prefix_map = PyTuple_GET_ITEM(state, 1);
    *kleene_map = PyTuple_GET_ITEM(state, 2);
    *kleene = PyTuple_GET_ITEM(state, 3);
    if (!PyDict_CheckExact(*armed) || !PyDict_CheckExact(*prefix_map)
        || !PyDict_CheckExact(*kleene_map)) {
        PyErr_SetString(PyExc_TypeError, "fold core: deferred class maps must be dicts");
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* fold_deferred                                                       */
/* ------------------------------------------------------------------ */

/* One prefix row in one class: arm ``low..high``, then settle every armed
 * cell up to the count and step its prefix coefficient. */
static int
fold_prefix_row(PyObject *state, long long low, long long high, long long *ops,
                long long *created)
{
    PyObject *armed, *prefix_map, *kleene_map, *kleene;
    if (unpack(state, &armed, &prefix_map, &kleene_map, &kleene) < 0) {
        return -1;
    }
    PyObject **at = slot(kleene, ROWS);
    if (at == NULL) {
        return -1;
    }
    PyObject *now = *at; /* the stamp of a settled cell: the count itself */
    long long rows = PyLong_AsLongLong(now), fresh = 0;
    if (rows == -1 && PyErr_Occurred()) {
        return -1;
    }
    Py_INCREF(now);
    int status = -1;
    for (long long index = low; index <= high; index++) {
        PyObject *key = PyLong_FromLongLong(index);
        int present = key == NULL ? -1 : PyDict_Contains(armed, key);
        if (present == 0) {
            present = (PyDict_SetItem(armed, key, now) < 0
                       || PyDict_SetItem(prefix_map, key, zero) < 0) ? -1 : 0;
            fresh += 1;
        }
        Py_XDECREF(key);
        if (present < 0) {
            goto done;
        }
    }
    if (add(kleene, CELLS, fresh) < 0) {
        goto done;
    }
    *created += fresh;
    *ops += PyDict_GET_SIZE(armed);
    Py_ssize_t position = 0;
    PyObject *index, *stamp;
    /* Only existing keys are written while walking ``armed``: no resize. */
    while (PyDict_Next(armed, &position, &index, &stamp)) {
        double prefix;
        if (item(prefix_map, index, &prefix) < 0) {
            goto done;
        }
        if (stamp != now) {
            long long stamped = PyLong_AsLongLong(stamp);
            if (stamped == -1 && PyErr_Occurred()) {
                goto done;
            }
            if (stamped != rows && (settle_cell(kleene_map, index, prefix, rows - stamped) < 0
                                    || PyDict_SetItem(armed, index, now) < 0)) {
                goto done;
            }
        }
        if (put(prefix_map, index, PyFloat_FromDouble(prefix + 1.0)) < 0) {
            goto done;
        }
    }
    status = 0;
done:
    Py_DECREF(now);
    return status;
}

/* One row of a segment through its feed ``(counter, prefixed, eager)``. */
static int
fold_row(PyObject *feed, long long lo, long long hi, long long *ops, long long *created,
         long long *armings)
{
    PyObject *counter = PyTuple_GET_ITEM(feed, 0);
    PyObject *prefixed = PyTuple_GET_ITEM(feed, 1);
    if (counter != Py_None) {
        /* Three operations per armed cell, a Kleene entry for the cells
         * that had none: what the per-event fold does at this row. */
        long long cells, entries;
        if (add(counter, ROWS, 1) < 0 || get(counter, CELLS, &cells) < 0
            || get(counter, ENTRIES, &entries) < 0 || add(counter, ENTRIES, cells - entries) < 0) {
            return -1;
        }
        *ops += 3 * cells;
        *created += cells - entries;
    }
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(prefixed); i++) {
        long long fresh = 0;
        if (fold_prefix_row(PyTuple_GET_ITEM(prefixed, i), lo, hi, ops, &fresh) < 0) {
            return -1;
        }
        *created += fresh;
        *armings += fresh;
    }
    return 0;
}

static PyObject *
fold_deferred(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *feeds, *types, *lows, *highs, *result = NULL;
    if (!PyArg_ParseTuple(args, "O!OOO:fold_deferred", &PyDict_Type, &feeds, &types, &lows,
                          &highs)) {
        return NULL;
    }
    types = PySequence_Fast(types, "fold_deferred: types must be a sequence");
    lows = types ? PySequence_Fast(lows, "fold_deferred: lows must be a sequence") : NULL;
    highs = lows ? PySequence_Fast(highs, "fold_deferred: highs must be a sequence") : NULL;
    if (highs == NULL) {
        goto done;
    }
    Py_ssize_t count = PySequence_Fast_GET_SIZE(types), row = 0;
    if (PySequence_Fast_GET_SIZE(lows) < count || PySequence_Fast_GET_SIZE(highs) < count) {
        PyErr_SetString(PyExc_ValueError, "fold_deferred: a covering range per row");
        goto done;
    }
    long long ops = 0, created = 0, armings = 0;
    for (; row < count; row++) {
        PyObject *feed = PyDict_GetItemWithError(feeds, PySequence_Fast_GET_ITEM(types, row));
        if (feed == NULL && PyErr_Occurred()) {
            goto done;
        }
        if (feed == NULL || !PyTuple_Check(feed) || PyTuple_GET_SIZE(feed) != 3
            || !PyTuple_Check(PyTuple_GET_ITEM(feed, 1))
            || PyObject_Length(PyTuple_GET_ITEM(feed, 2)) != 0) {
            PyErr_Clear();
            break; /* a declined type or an eager reader: the reference's row */
        }
        long long lo = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(lows, row));
        long long hi = lo == -1 && PyErr_Occurred()
                           ? 0 : PyLong_AsLongLong(PySequence_Fast_GET_ITEM(highs, row));
        if (PyErr_Occurred() || fold_row(feed, lo, hi, &ops, &created, &armings) < 0) {
            goto done;
        }
    }
    result = Py_BuildValue("LLLn", ops, created, armings, row);
done:
    Py_XDECREF(types);
    Py_XDECREF(lows);
    Py_XDECREF(highs);
    return result;
}

/* ------------------------------------------------------------------ */
/* close_scalar                                                        */
/* ------------------------------------------------------------------ */

/* Drop one class's cell of window ``index``; a deferred class first pays
 * what that one cell owes (its other cells stay deferred). */
static int
disarm(PyObject *armed, PyObject *state, PyObject *index, long long *disarmed)
{
    PyObject *stamp = PyDict_GetItemWithError(armed, index);
    if (stamp == NULL) {
        return PyErr_Occurred() ? -1 : 0;
    }
    long long stamped = PyLong_AsLongLong(stamp), rows;
    if ((stamped == -1 && PyErr_Occurred()) || PyDict_DelItem(armed, index) < 0) {
        return -1;
    }
    *disarmed += 1;
    if (state == NULL) {
        return 0;
    }
    PyObject *cells, *prefix_map, *kleene_map, *kleene;
    if (unpack(state, &cells, &prefix_map, &kleene_map, &kleene) < 0
        || add(kleene, CELLS, -1) < 0 || get(kleene, ROWS, &rows) < 0) {
        return -1;
    }
    if (stamped != rows) {
        double prefix;
        if (item(prefix_map, index, &prefix) < 0
            || settle_cell(kleene_map, index, prefix, rows - stamped) < 0) {
            return -1;
        }
        return add(kleene, ENTRIES, -1);
    }
    int present = PyDict_Contains(kleene_map, index);
    return present < 0 ? -1 : add(kleene, ENTRIES, -present);
}

/* Pop ``index`` from ``window_map``, adding its value to ``*total`` if
 * ``total`` is given. */
static int
drain(PyObject *window_map, PyObject *index, double *total, long long *evicted)
{
    if (!PyDict_CheckExact(window_map)) {
        PyErr_SetString(PyExc_TypeError, "close_scalar: coefficient maps must be dicts");
        return -1;
    }
    PyObject *value = PyDict_GetItemWithError(window_map, index);
    if (value == NULL) {
        return PyErr_Occurred() ? -1 : 0;
    }
    double read;
    if (total != NULL && as_double(value, &read) < 0) {
        return -1;
    }
    if (PyDict_DelItem(window_map, index) < 0) {
        return -1;
    }
    if (total != NULL) {
        *total += read;
    }
    *evicted += 1;
    return 0;
}

/* The readout of window ``index`` into ``values`` (one double per class):
 * MultiWindowLinearEngine.close_window for a scalar unit with no split
 * column and no event store, on the engine's maps. */
static int
read_scalar(PyObject *index, PyObject *armed, PyObject *deferred, PyObject *end_maps,
            PyObject *evict_maps, double *values, long long *disarmed, long long *evicted)
{
    Py_ssize_t classes = PyList_GET_SIZE(armed);
    if (PyList_GET_SIZE(end_maps) != classes || (deferred != Py_None && !PyDict_Check(deferred))) {
        PyErr_SetString(PyExc_TypeError, "close_scalar: malformed engine state");
        return -1;
    }
    for (Py_ssize_t spec = 0; spec < classes; spec++) {
        PyObject *cells = PyList_GET_ITEM(armed, spec), *ends = PyList_GET_ITEM(end_maps, spec);
        PyObject *state = NULL;
        if (!PyDict_CheckExact(cells) || !PyTuple_Check(ends)) {
            PyErr_SetString(PyExc_TypeError, "close_scalar: malformed engine state");
            return -1;
        }
        if (deferred != Py_None && PyDict_GET_SIZE(deferred)) {
            PyObject *key = PyLong_FromSsize_t(spec);
            state = key == NULL ? NULL : PyDict_GetItemWithError(deferred, key);
            Py_XDECREF(key);
            if (state == NULL && PyErr_Occurred()) {
                return -1;
            }
        }
        if (disarm(cells, state, index, disarmed) < 0) {
            return -1;
        }
        /* The readout drains the end-type coefficients it reads. */
        values[spec] = 0.0;
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(ends); i++) {
            if (drain(PyTuple_GET_ITEM(ends, i), index, &values[spec], evicted) < 0) {
                return -1;
            }
        }
    }
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(evict_maps); i++) {
        if (drain(PyTuple_GET_ITEM(evict_maps, i), index, NULL, evicted) < 0) {
            return -1;
        }
    }
    return 0;
}

static PyObject *
close_scalar(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *index, *armed, *deferred, *end_maps, *evict_maps;
    if (!PyArg_ParseTuple(args, "O!O!OO!O!:close_scalar", &PyLong_Type, &index, &PyList_Type,
                          &armed, &deferred, &PyList_Type, &end_maps, &PyTuple_Type,
                          &evict_maps)) {
        return NULL;
    }
    Py_ssize_t size = PyList_GET_SIZE(armed) * (Py_ssize_t)sizeof(double);
    PyObject *bytes = PyBytes_FromStringAndSize(NULL, size);
    if (bytes == NULL) {
        return NULL;
    }
    long long disarmed = 0, evicted = 0;
    PyObject *result = NULL, *readout = NULL;
    if (read_scalar(index, armed, deferred, end_maps, evict_maps,
                    (double *)PyBytes_AS_STRING(bytes), &disarmed, &evicted) == 0
        && (readout = PyObject_CallFunctionObjArgs(array_type, typecode, bytes, NULL)) != NULL) {
        result = Py_BuildValue("NLL", readout, disarmed, evicted);
    }
    Py_DECREF(bytes);
    return result;
}

/* ------------------------------------------------------------------ */
/* Covering ranges                                                     */
/* ------------------------------------------------------------------ */

/* math.ulp */
static double
ulp(double x)
{
    x = fabs(x);
    if (isinf(x) || isnan(x)) {
        return x;
    }
    double up = nextafter(x, INFINITY);
    return isinf(up) ? x - nextafter(x, -INFINITY) : up - x;
}

/* Window.covering_bounds(time) for ``0 <= time / slide < 2**52``: both
 * edges' quotients snap up within Window._snap_tolerance(time). */
static void
bounds(double time, double size, double slide, long long *low, long long *high)
{
    double magnitude = (time + size) / slide;
    double tolerance = fmax(4.0 * ulp(magnitude), fmin(1e-12 * magnitude, 1e-9));
    double quotient = time / slide, index = floor(quotient);
    *high = (long long)(index + 1 - quotient <= tolerance ? index + 1 : index);
    quotient = (time - size) / slide;
    if (quotient < -2.0) { /* snapped it stays below -1: the edge clips to 0 */
        *low = 0;
        return;
    }
    index = floor(quotient);
    index = index + 1 - quotient <= tolerance ? index + 1 : index;
    *low = index + 1 > 0 ? (long long)index + 1 : 0;
}

/* ------------------------------------------------------------------ */
/* Block columns                                                       */
/* ------------------------------------------------------------------ */

/* A list, or an array of doubles ('d'), int64s ('q') or uint32s ('I'). */
typedef struct {
    PyObject *list;
    Py_buffer view;
    char format;
} column;

static int
column_open(column *of, PyObject *source, Py_ssize_t length)
{
    of->list = NULL;
    of->view.obj = NULL;
    if (PyList_CheckExact(source)) {
        Py_INCREF(source);
        of->list = source;
        of->format = 'o';
        if (PyList_GET_SIZE(source) >= length) {
            return 0;
        }
    }
    else {
        if (PyObject_GetBuffer(source, &of->view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0) {
            return -1;
        }
        of->format = of->view.format != NULL && of->view.format[1] == '\0' ? of->view.format[0] : 0;
        int size = of->format == 'd' || of->format == 'q' ? 8 : of->format == 'I' ? 4 : 0;
        if (size == 0 || of->view.itemsize != size) {
            PyErr_SetString(PyExc_TypeError, "fold core: a column must be a list or a typed array");
            return -1;
        }
        if (of->view.len / size >= length) {
            return 0;
        }
    }
    PyErr_SetString(PyExc_ValueError, "fold core: a column is shorter than the block");
    return -1;
}

static void
column_close(column *of)
{
    Py_CLEAR(of->list);
    if (of->view.obj != NULL) {
        PyBuffer_Release(&of->view);
    }
}

static int
column_double(const column *of, Py_ssize_t row, double *out)
{
    const void *at = of->view.buf;
    switch (of->format) {
        case 'o': {
            PyObject *item = PyList_GET_ITEM(of->list, row);
            *out = PyFloat_CheckExact(item) ? PyFloat_AS_DOUBLE(item) : PyFloat_AsDouble(item);
            return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
        }
        case 'd': *out = ((const double *)at)[row]; return 0;
        case 'q': *out = (double)((const long long *)at)[row]; return 0;
        default: PyErr_SetString(PyExc_TypeError, "fold core: a time column holds no numbers");
    }
    return -1;
}

static int
column_long(const column *of, Py_ssize_t row, long long *out)
{
    const void *at = of->view.buf;
    switch (of->format) {
        case 'o': {
            *out = PyLong_AsLongLong(PyList_GET_ITEM(of->list, row));
            return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
        }
        case 'q': *out = ((const long long *)at)[row]; return 0;
        case 'I': *out = ((const unsigned int *)at)[row]; return 0;
        default: PyErr_SetString(PyExc_TypeError, "fold core: an integer column holds floats");
    }
    return -1;
}

/* The row's value as the column's own object would read in Python. */
static PyObject *
column_object(const column *of, Py_ssize_t row)
{
    if (of->format == 'o') {
        return Py_NewRef(PyList_GET_ITEM(of->list, row));
    }
    if (of->format == 'd') {
        return PyFloat_FromDouble(((const double *)of->view.buf)[row]);
    }
    long long value;
    return column_long(of, row, &value) < 0 ? NULL : PyLong_FromLongLong(value);
}

/* ------------------------------------------------------------------ */
/* Walk: the Cover stage of the static plan                            */
/* ------------------------------------------------------------------ */

/* A streaming _WindowMeta and the CloseStage: the walk opens windows, the
 * sweep closes them. */
static layout window_metas = {NULL, 3, {"index", "end", "opened_fed"}, {0}};
enum { INDEX, END, OPENED };
static layout stages = {NULL, 3, {"active", "closed", "next_close"}, {0}};
enum { ACTIVE, CLOSED, NEXT_CLOSE };

/* A new ``type`` object holding ``values`` (stolen, NULL-checked) in the
 * slots of ``of``, in order. */
static PyObject *
build(layout *of, PyObject *type, PyObject **values)
{
    PyObject *object = NULL;
    int ready = 1;
    for (int which = 0; which < of->count; which++) {
        ready &= values[which] != NULL;
    }
    if (ready && (of->type == (PyTypeObject *)type || bind(of, (PyTypeObject *)type) == 0)) {
        object = ((PyTypeObject *)type)->tp_alloc((PyTypeObject *)type, 0);
    }
    for (int which = 0; which < of->count; which++) {
        if (object != NULL) {
            *(PyObject **)((char *)object + of->offsets[which]) = values[which];
        }
        else {
            Py_XDECREF(values[which]);
        }
    }
    return object;
}


#define UNARMED LLONG_MIN
enum { DONE, SWEEP, PREPARE, RESOLVE };
static unsigned long long walked_rows = 0, handed_rows = 0, in_place = 0, handed_over = 0;

/* One unit's side of a walk: its group codes and per-code caches (shared
 * with the Python row body), and the rows fed since the last fold. */
typedef struct {
    int attached;
    column codes;
    PyObject *unit;      /* the streaming _Unit: its next_close */
    PyObject *groups;    /* its groups dict, looked up by ``table``'s keys */
    PyObject *table_keys; /* tuple per code: the block's group key */
    PyObject *size_obj, *slide_obj; /* the window's own numbers, for window ends */
    PyObject *resolved;  /* list per code: the group, False (no group), None */
    PyObject *contributions; /* per row: the unit's contributions, None */
    PyObject *views;         /* rows -> their row views, None: never read */
    PyObject *cursor;        /* the engines' order cursor class, None: no direct fold */
    Py_buffer armed;     /* array('q') per code: highest armed index */
    PyObject *qualifies; /* bytes per type code: the type opens windows */
    PyObject *scratch;   /* the executor's array('q'): fed (row, slot) pairs */
    Py_buffer view;
    double size, slide;
    Py_ssize_t table, entries, slots;
    Py_ssize_t *slot_of;  /* per code: its group's slot, -1 */
    Py_ssize_t *slot_code;
    PyObject **slot_group; /* per slot, in first-fed order */
} unit_walk;

typedef struct {
    PyObject_HEAD
    column times, sequences, types;
    PyObject *type_table, *arrivals;
    PyObject *stage, *metrics, *meta_type; /* CloseStage, ExecutionMetrics, _WindowMeta */
    Py_ssize_t base, count, type_count, unit_count, attached;
    Py_ssize_t *feed_start, *feed_units, *touched, *keys;
    int *verdicts;  /* per unit a row feeds: classify's verdict and group code */
    unit_walk *units;
} Walk;

static PyObject *s_process_block_run, *s_frombytes, *s_segment_feeds, *s_eager, *s_columns;
static PyObject *s_latest_event, *s_unit, *s_layout, *s_armed, *s_deferred, *s_unsettled;
static PyObject *s_end_maps, *s_evict_maps, *s_ops, *s_coeff_entries, *s_replica_entries;
static PyObject *s_armed_entries, *s_by_layout, *s_sums_of, *s_copy, *s_next_close;
static PyObject *s_peak_active, *s_groups, *s_store, *s_scalar, *s_dimension, *s_memory_units;
static PyObject *s_start, *s_step;

static void
unit_release(unit_walk *unit)
{
    column_close(&unit->codes);
    Py_CLEAR(unit->unit);
    Py_CLEAR(unit->groups);
    Py_CLEAR(unit->table_keys);
    Py_CLEAR(unit->size_obj);
    Py_CLEAR(unit->slide_obj);
    Py_CLEAR(unit->resolved);
    Py_CLEAR(unit->contributions);
    Py_CLEAR(unit->views);
    Py_CLEAR(unit->cursor);
    Py_CLEAR(unit->qualifies);
    if (unit->armed.obj != NULL) {
        PyBuffer_Release(&unit->armed);
    }
    if (unit->view.obj != NULL) {
        PyBuffer_Release(&unit->view);
    }
    Py_CLEAR(unit->scratch);
    for (Py_ssize_t slot = 0; slot < unit->slots; slot++) {
        Py_CLEAR(unit->slot_group[slot]);
    }
    PyMem_Free(unit->slot_of);
    PyMem_Free(unit->slot_code);
    PyMem_Free(unit->slot_group);
    memset(unit, 0, sizeof(*unit));
}

static PyObject *
walk_close(Walk *self, PyObject *Py_UNUSED(args))
{
    column_close(&self->times);
    column_close(&self->sequences);
    column_close(&self->types);
    for (Py_ssize_t unit = 0; self->units != NULL && unit < self->unit_count; unit++) {
        unit_release(&self->units[unit]);
    }
    PyMem_Free(self->units);
    PyMem_Free(self->feed_start);
    PyMem_Free(self->feed_units);
    PyMem_Free(self->touched);
    PyMem_Free(self->keys);
    PyMem_Free(self->verdicts);
    self->units = NULL;
    self->feed_start = self->feed_units = self->touched = self->keys = NULL;
    self->verdicts = NULL;
    self->unit_count = self->type_count = self->attached = 0;
    Py_CLEAR(self->type_table);
    Py_CLEAR(self->arrivals);
    Py_CLEAR(self->stage);
    Py_CLEAR(self->metrics);
    Py_CLEAR(self->meta_type);
    Py_RETURN_NONE;
}

static void
walk_dealloc(Walk *self)
{
    Py_XDECREF(walk_close(self, NULL));
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
walk_init(Walk *self, PyObject *args, PyObject *Py_UNUSED(kwargs))
{
    PyObject *times, *sequences, *types, *by_code;
    Py_XDECREF(walk_close(self, NULL));
    if (!PyArg_ParseTuple(args, "OOOO!nnO!OnOOO!:Walk", &times, &sequences, &types,
                          &PyTuple_Type, &self->type_table, &self->base, &self->count,
                          &PyTuple_Type, &by_code, &self->arrivals, &self->unit_count,
                          &self->stage, &self->metrics, &PyType_Type, &self->meta_type)) {
        self->type_table = self->arrivals = self->stage = self->metrics = self->meta_type = NULL;
        return -1;
    }
    Py_INCREF(self->type_table);
    Py_INCREF(self->arrivals);
    Py_INCREF(self->stage);
    Py_INCREF(self->metrics);
    Py_INCREF(self->meta_type);
    Py_ssize_t end = self->base + self->count, feeds = 0, widest = 0;
    self->type_count = PyTuple_GET_SIZE(by_code);
    if (self->base < 0 || self->count < 0 || self->unit_count < 0
        || PyTuple_GET_SIZE(self->type_table) != self->type_count
        || (PyList_Check(self->arrivals) && PyList_GET_SIZE(self->arrivals) < self->count)) {
        PyErr_SetString(PyExc_ValueError, "Walk: malformed block");
        return -1;
    }
    for (Py_ssize_t code = 0; code < self->type_count; code++) {
        PyObject *units = PyTuple_GET_ITEM(by_code, code);
        if (!PyTuple_Check(units)) {
            PyErr_SetString(PyExc_TypeError, "Walk: by_code holds a tuple of units per type");
            return -1;
        }
        feeds += PyTuple_GET_SIZE(units);
        widest = PyTuple_GET_SIZE(units) > widest ? PyTuple_GET_SIZE(units) : widest;
    }
    self->units = PyMem_Calloc(self->unit_count + 1, sizeof(unit_walk));
    self->feed_start = PyMem_Calloc(self->type_count + 1, sizeof(Py_ssize_t));
    self->feed_units = PyMem_Calloc(feeds + 1, sizeof(Py_ssize_t));
    self->touched = PyMem_Calloc(self->unit_count + 1, sizeof(Py_ssize_t));
    self->keys = PyMem_Calloc(widest + 1, sizeof(Py_ssize_t));
    self->verdicts = PyMem_Calloc(widest + 1, sizeof(int));
    if (!self->units || !self->feed_start || !self->feed_units || !self->touched || !self->keys
        || !self->verdicts) {
        PyErr_NoMemory();
        return -1;
    }
    feeds = 0;
    for (Py_ssize_t code = 0; code < self->type_count; code++) {
        PyObject *units = PyTuple_GET_ITEM(by_code, code);
        self->feed_start[code] = feeds;
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(units); i++) {
            Py_ssize_t unit = PyLong_AsSsize_t(PyTuple_GET_ITEM(units, i));
            if (unit < 0 || unit >= self->unit_count) {
                if (!PyErr_Occurred()) {
                    PyErr_SetString(PyExc_ValueError, "Walk: no such unit");
                }
                return -1;
            }
            self->feed_units[feeds++] = unit;
        }
    }
    self->feed_start[self->type_count] = feeds;
    if (column_open(&self->times, times, end) < 0
        || column_open(&self->sequences, sequences, end) < 0
        || column_open(&self->types, types, end) < 0) {
        return -1;
    }
    return 0;
}

static PyObject *
walk_attach(Walk *self, PyObject *args)
{
    Py_ssize_t index;
    PyObject *owner, *groups_map, *table, *codes, *resolved, *armed, *qualifies, *contributions;
    PyObject *views, *cursor, *size, *slide, *scratch;
    if (!PyArg_ParseTuple(args, "nOO!O!OO!OO!OOOOOO:attach", &index, &owner, &PyDict_Type,
                          &groups_map, &PyTuple_Type, &table, &codes, &PyList_Type, &resolved,
                          &armed, &PyBytes_Type, &qualifies, &contributions, &views, &cursor,
                          &size, &slide, &scratch)) {
        return NULL;
    }
    if (index < 0 || index >= self->unit_count || self->units[index].attached
        || PyBytes_GET_SIZE(qualifies) < self->type_count
        || PyTuple_GET_SIZE(table) != PyList_GET_SIZE(resolved)) {
        PyErr_SetString(PyExc_ValueError, "attach: malformed unit");
        return NULL;
    }
    unit_walk *unit = &self->units[index];
    if (as_double(size, &unit->size) < 0 || as_double(slide, &unit->slide) < 0) {
        return NULL;
    }
    unit->table = PyList_GET_SIZE(resolved);
    unit->unit = Py_NewRef(owner);
    unit->groups = Py_NewRef(groups_map);
    unit->table_keys = Py_NewRef(table);
    unit->size_obj = Py_NewRef(size);
    unit->slide_obj = Py_NewRef(slide);
    unit->resolved = Py_NewRef(resolved);
    unit->qualifies = Py_NewRef(qualifies);
    unit->contributions = Py_NewRef(contributions);
    unit->views = Py_NewRef(views);
    unit->cursor = Py_NewRef(cursor);
    unit->scratch = Py_NewRef(scratch);
    unit->slot_of = PyMem_Malloc((unit->table + 1) * sizeof(Py_ssize_t));
    unit->slot_code = PyMem_Malloc((unit->table + 1) * sizeof(Py_ssize_t));
    unit->slot_group = PyMem_Calloc(unit->table + 1, sizeof(PyObject *));
    if (!unit->slot_of || !unit->slot_code || !unit->slot_group) {
        unit_release(unit);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t code = 0; code < unit->table; code++) {
        unit->slot_of[code] = -1;
    }
    if (column_open(&unit->codes, codes, self->count) < 0
        || PyObject_GetBuffer(armed, &unit->armed, PyBUF_FORMAT | PyBUF_WRITABLE) < 0
        || PyObject_GetBuffer(scratch, &unit->view, PyBUF_FORMAT | PyBUF_WRITABLE) < 0) {
        unit_release(unit);
        return NULL;
    }
    if (strcmp(unit->armed.format, "q") || unit->armed.len != unit->table * 8
        || strcmp(unit->view.format, "q")) {
        unit_release(unit);
        PyErr_SetString(PyExc_TypeError, "attach: armed and scratch must be array('q')");
        return NULL;
    }
    unit->attached = 1;
    self->touched[self->attached++] = index;
    Py_RETURN_NONE;
}

/* Room for ``need`` int64s in the unit's scratch, which only grows. */
static long long *
room(unit_walk *unit, Py_ssize_t need)
{
    Py_ssize_t have = unit->view.len / 8;
    if (have < need) {
        Py_ssize_t more = (need > 2 * have ? need : 2 * have) + 64 - have;
        PyBuffer_Release(&unit->view);
        PyObject *zeros = PyBytes_FromStringAndSize(NULL, more * 8);
        if (zeros != NULL) {
            memset(PyBytes_AS_STRING(zeros), 0, more * 8);
        }
        PyObject *done = zeros ? PyObject_CallMethodOneArg(unit->scratch, s_frombytes, zeros)
                               : NULL;
        Py_XDECREF(zeros);
        if (done == NULL) {
            return NULL;
        }
        Py_DECREF(done);
        if (PyObject_GetBuffer(unit->scratch, &unit->view, PyBUF_FORMAT | PyBUF_WRITABLE) < 0) {
            return NULL;
        }
    }
    return (long long *)unit->view.buf;
}

/* Feed local ``row`` to the group of code ``key``'s slot. */
static int
feed(Walk *self, unit_walk *unit, Py_ssize_t row, Py_ssize_t key)
{
    PyObject *group = PyList_GET_ITEM(unit->resolved, key);
    Py_ssize_t slot = unit->slot_of[key];
    if (slot < 0) {
        slot = unit->slot_of[key] = unit->slots;
        unit->slot_code[slot] = key;
        unit->slot_group[unit->slots++] = Py_NewRef(group);
    }
    long long *entries = room(unit, 2 * (unit->entries + 1));
    PyObject **fed = member(&groups, group, FED), **arrival = member(&groups, group, ARRIVAL);
    if (entries == NULL || fed == NULL || arrival == NULL) {
        return -1;
    }
    entries[2 * unit->entries] = row;
    entries[2 * unit->entries + 1] = slot;
    unit->entries += 1;
    long long count = PyLong_AsLongLong(*fed);
    PyObject *boxed = count == -1 && PyErr_Occurred() ? NULL : PyLong_FromLongLong(count + 1);
    if (boxed == NULL) {
        return -1;
    }
    Py_SETREF(*fed, boxed);
    PyObject *stamp = PyList_Check(self->arrivals) ? PyList_GET_ITEM(self->arrivals, row)
                                                   : self->arrivals;
    Py_SETREF(*arrival, Py_NewRef(stamp));
    return 0;
}

/* ``a < b`` as Python compares them. */
static int
less(PyObject *a, PyObject *b)
{
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b)) {
        return PyFloat_AS_DOUBLE(a) < PyFloat_AS_DOUBLE(b);
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* StreamingExecutor._open_windows: open the windows ``first..last`` of
 * ``group`` not open yet -- each a _WindowMeta(index, index * slide + size,
 * group.fed), Window.instance_bounds' arithmetic on the window's own
 * numbers --, count each open, lower the unit's and then the stage's next
 * close (and the walk's, ``*next_close``) to an earlier end, and note the
 * peak of open windows. */
static int
open_windows(Walk *self, unit_walk *unit, PyObject *group, long long first, long long last,
             double *next_close)
{
    PyObject **metas = member(&groups, group, METAS), **fed = member(&groups, group, FED);
    PyObject **active = member(&stages, self->stage, ACTIVE);
    PyObject **stage_close = member(&stages, self->stage, NEXT_CLOSE);
    int status = metas && fed && active && stage_close ? 0 : -1, opened = 0;
    for (long long at = first; at <= last && status == 0; at++) {
        PyObject *index = PyLong_FromLongLong(at), *start = NULL, *end = NULL, *meta = NULL;
        PyObject *unit_close = NULL;
        int open = index == NULL ? -1 : PyDict_Contains(*metas, index);
        if (open == 0) {
            start = PyNumber_Multiply(index, unit->slide_obj);
            end = start == NULL ? NULL : PyNumber_Add(start, unit->size_obj);
            PyObject *values[3] = {Py_NewRef(index), Py_XNewRef(end), Py_NewRef(*fed)};
            meta = build(&window_metas, self->meta_type, values);
            opened = 1;
            if (meta == NULL || PyDict_SetItem(*metas, index, meta) < 0 || bump(active, 1) < 0
                || (unit_close = PyObject_GetAttr(unit->unit, s_next_close)) == NULL
                || (open = less(end, unit_close)) < 0
                || (open && PyObject_SetAttr(unit->unit, s_next_close, end) < 0)
                || (open && (open = less(end, *stage_close)) < 0)
                || (open && as_double(end, next_close) < 0)) {
                open = -1;
            }
            else if (open) {
                Py_SETREF(*stage_close, Py_NewRef(end));
            }
        }
        status = open < 0 ? -1 : 0;
        Py_XDECREF(index);
        Py_XDECREF(start);
        Py_XDECREF(end);
        Py_XDECREF(meta);
        Py_XDECREF(unit_close);
    }
    if (status == 0 && opened) {
        PyObject *peak = PyObject_GetAttr(self->metrics, s_peak_active);
        int higher = peak == NULL ? -1 : less(peak, *active);
        Py_XDECREF(peak);
        status = higher > 0 ? PyObject_SetAttr(self->metrics, s_peak_active, *active) : higher;
    }
    return status;
}

/* Where local ``row`` of type ``code`` goes in ``unit`` (its group code
 * in ``*key``): 1 its group, 0 nowhere, RESOLVE the Python row body first
 * (a qualifying row whose key has no group: it opens one), -1 an error.
 * On the way it resolves the code's group -- a code unresolved, cached with
 * no group (for a qualifying row) or with a group with no window left
 * (evicted since, or never armed) is looked up in the unit's groups -- and,
 * for a qualifying row, arms the windows of its covering range above the
 * code's armed high, as StreamingExecutor._arm does.  ``prepared``: that
 * body just ran for the row. */
static int
classify(Walk *self, unit_walk *unit, Py_ssize_t row, long long code, double time, int prepared,
         Py_ssize_t *key, double *next_close)
{
    long long value, low, high;
    if (column_long(&unit->codes, row, &value) < 0 || value < 0 || value >= unit->table) {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_IndexError, "run: group code out of range");
        }
        return -1;
    }
    *key = (Py_ssize_t)value;
    int qualifies = PyBytes_AS_STRING(unit->qualifies)[code] != 0;
    PyObject *group = PyList_GET_ITEM(unit->resolved, *key), **metas = NULL;
    if (group == Py_False && !qualifies) {
        return 0;
    }
    if (group != Py_None && group != Py_False && (metas = member(&groups, group, METAS)) == NULL) {
        return -1;
    }
    if (metas == NULL || !PyDict_CheckExact(*metas) || PyDict_GET_SIZE(*metas) == 0) {
        group = PyDict_GetItemWithError(unit->groups, PyTuple_GET_ITEM(unit->table_keys, *key));
        if (group == NULL && PyErr_Occurred()) {
            return -1;
        }
        if (PyList_SetItem(unit->resolved, *key, Py_NewRef(group ? group : Py_False)) < 0) {
            return -1;
        }
        if (group == NULL) {
            return qualifies && !prepared ? RESOLVE : 0;
        }
        if ((metas = member(&groups, group, METAS)) == NULL) {
            return -1;
        }
        if (!PyDict_CheckExact(*metas)) {
            PyErr_SetString(PyExc_TypeError, "run: a group's metas must be a dict");
            return -1;
        }
    }
    bounds(time, unit->size, unit->slide, &low, &high);
    if (high < low) {
        return 0;
    }
    long long *armed = &((long long *)unit->armed.buf)[*key];
    if (qualifies && (*armed == UNARMED || high > *armed)) {
        long long first = *armed == UNARMED || low > *armed ? low : *armed + 1;
        if (open_windows(self, unit, group, first, high, next_close) < 0) {
            return -1;
        }
        *armed = high;
    }
    return PyDict_GET_SIZE(*metas) != 0;
}

static PyObject *
walk_run(Walk *self, PyObject *args)
{
    Py_ssize_t row, prepared, unit_index = -1;
    double next_close;
    long long fed = 0;
    int reason = DONE;
    if (!PyArg_ParseTuple(args, "nn:run", &row, &prepared)) {
        return NULL;
    }
    PyObject **stage_close = member(&stages, self->stage, NEXT_CLOSE);
    if (stage_close == NULL || as_double(*stage_close, &next_close) < 0) {
        return NULL;
    }
    for (; row < self->count && reason == DONE; row++) {
        Py_ssize_t at = self->base + row;
        double time;
        long long code;
        if (column_double(&self->times, at, &time) < 0
            || column_long(&self->types, at, &code) < 0) {
            return NULL;
        }
        if (time >= next_close) {
            reason = SWEEP;
            break;
        }
        code = code < 0 ? code + self->type_count : code;
        if (code < 0 || code >= self->type_count) {
            PyErr_SetString(PyExc_IndexError, "run: type code out of range");
            return NULL;
        }
        Py_ssize_t first = self->feed_start[code], last = self->feed_start[code + 1];
        /* Every unit the row feeds is attached before any is resolved. */
        for (Py_ssize_t i = first; i < last && reason == DONE; i++) {
            if (!self->units[self->feed_units[i]].attached) {
                reason = PREPARE;
                unit_index = self->feed_units[i];
            }
        }
        for (Py_ssize_t i = first; i < last && reason == DONE; i++) {
            int verdict = self->verdicts[i - first]
                = classify(self, &self->units[self->feed_units[i]], row, code, time,
                           row == prepared, &self->keys[i - first], &next_close);
            if (verdict < 0) {
                return NULL;
            }
            if (verdict == RESOLVE) {
                handed_rows += 1;
                reason = RESOLVE;
            }
        }
        if (reason != DONE) {
            break;
        }
        for (Py_ssize_t i = first; i < last; i++) { /* every verdict in: feed */
            if (self->verdicts[i - first] == 1) {
                if (feed(self, &self->units[self->feed_units[i]], row, self->keys[i - first]) < 0) {
                    return NULL;
                }
                fed += 1;
            }
        }
        walked_rows += 1;
    }
    return Py_BuildValue("niiL", row, reason, (int)unit_index, fed);
}

/* An order cursor's two slots (shared_windows._OrderPoint). */
static layout cursors = {NULL, 2, {"time", "sequence"}, {0}};
enum { AT_TIME, AT_SEQUENCE };

/* A cursor's time as a double (1), or 0 where no double holds it exactly. */
static int
exact_time(PyObject *value, double *out)
{
    if (PyFloat_CheckExact(value)) {
        *out = PyFloat_AS_DOUBLE(value);
        return 1;
    }
    *out = PyLong_CheckExact(value) ? PyLong_AsDouble(value) : NAN;
    if (PyErr_Occurred()) { /* an int past a double's range */
        PyErr_Clear();
        return 0;
    }
    return fabs(*out) < EXACT_LIMIT;
}

/* 1 where the rows are in strict (time, sequence) order after the cursor
 * ``(time, sequence)`` (NULL: none), else 0: a value the reference must
 * compare, or rows out of order. */
static int
in_order(Walk *self, PyObject *time, PyObject *sequence, const long long *rows,
         Py_ssize_t count)
{
    double last_time = 0.0, now;
    long long last_sequence = 0, next;
    int first = time == NULL;
    if (!first && (!exact_time(time, &last_time) || !PyLong_CheckExact(sequence)
                   || ((last_sequence = PyLong_AsLongLong(sequence)) == -1 && PyErr_Occurred()))) {
        PyErr_Clear();
        return 0;
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        Py_ssize_t at = self->base + rows[i];
        if (column_double(&self->times, at, &now) < 0
            || column_long(&self->sequences, at, &next) < 0) {
            PyErr_Clear();
            return 0;
        }
        if (!first && !(last_time < now || (last_time == now && last_sequence < next))) {
            return 0;
        }
        first = 0;
        last_time = now;
        last_sequence = next;
    }
    return 1;
}

/* _fold_segment without the hand-off, on the walk's rows and ranges, where
 * the unit is scalar and reads every row from columns (``unit->cursor`` is
 * set) and the engine folds every class deferred (no eager class, no split
 * column): _advance's order check and cursor, the deferral's resumption,
 * fold_deferred's loop, and the engine's books.  1 folded; 0 another
 * shape, or rows out of order (the hand-off then raises the reference's
 * error), nothing touched; -1 an error. */
static int
fold_direct(Walk *self, unit_walk *unit, PyObject *engine, const long long *rows,
            Py_ssize_t count)
{
    PyObject *feeds = PyObject_GetAttr(engine, s_segment_feeds), *deferred = NULL;
    PyObject *eager = feeds ? PyObject_GetAttr(engine, s_eager) : NULL;
    PyObject *columns = eager ? PyObject_GetAttr(engine, s_columns) : NULL;
    PyObject *latest = columns ? PyObject_GetAttr(engine, s_latest_event) : NULL;
    PyObject *unsettled = NULL, **time = NULL, **sequence = NULL, *last[2] = {NULL, NULL};
    long long ops = 0, created = 0, armings = 0, total;
    int status = -1;
    if (latest == NULL) {
        goto done;
    }
    status = 0;
    if (!PyDict_CheckExact(feeds) || !PyList_CheckExact(eager) || PyList_GET_SIZE(eager)
        || !PyDict_CheckExact(columns) || PyDict_GET_SIZE(columns)
        || (latest != Py_None && Py_TYPE(latest) != (PyTypeObject *)unit->cursor)) {
        goto done;
    }
    if (latest != Py_None && ((time = member(&cursors, latest, AT_TIME)) == NULL
                              || (sequence = member(&cursors, latest, AT_SEQUENCE)) == NULL)) {
        status = -1;
        goto done;
    }
    if (!in_order(self, time ? *time : NULL, sequence ? *sequence : NULL, rows, count)) {
        goto done;
    }
    status = -1;
    Py_ssize_t end = self->base + rows[count - 1];
    if ((last[0] = column_object(&self->times, end)) == NULL
        || (last[1] = column_object(&self->sequences, end)) == NULL) {
        goto done;
    }
    if (time != NULL) { /* moved in place, as _advance moves it */
        Py_SETREF(*time, last[0]);
        Py_SETREF(*sequence, last[1]);
        last[0] = last[1] = NULL;
    }
    else {
        PyObject *point = PyObject_CallFunctionObjArgs(unit->cursor, last[0], last[1], NULL);
        int stored = point == NULL ? -1 : PyObject_SetAttr(engine, s_latest_event, point);
        Py_XDECREF(point);
        if (stored < 0) {
            goto done;
        }
    }
    int owing = (unsettled = PyObject_GetAttr(engine, s_unsettled)) == NULL
                    ? -1 : PyObject_IsTrue(unsettled);
    if (owing < 0 || (!owing && (deferred = PyObject_GetAttr(engine, s_deferred)) == NULL)) {
        goto done;
    }
    if (deferred != NULL && PyDict_CheckExact(deferred) && PyDict_GET_SIZE(deferred)) {
        /* Deferral resumes: count the cells and entries the maps hold. */
        Py_ssize_t position = 0;
        PyObject *key, *state, *armed, *prefix_map, *kleene_map, *kleene;
        if (PyObject_SetAttr(engine, s_unsettled, Py_True) < 0) {
            goto done;
        }
        while (PyDict_Next(deferred, &position, &key, &state)) {
            if (unpack(state, &armed, &prefix_map, &kleene_map, &kleene) < 0
                || add(kleene, CELLS, PyDict_GET_SIZE(armed)) < 0
                || add(kleene, ENTRIES, PyDict_GET_SIZE(kleene_map)) < 0) {
                goto done;
            }
        }
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        Py_ssize_t at = self->base + rows[i];
        double moment;
        long long code, low, high;
        if (column_double(&self->times, at, &moment) < 0
            || column_long(&self->types, at, &code) < 0) {
            goto done;
        }
        code = code < 0 ? code + self->type_count : code;
        PyObject *feed = PyDict_GetItemWithError(feeds, PyTuple_GET_ITEM(self->type_table, code));
        if (feed == NULL || !PyTuple_Check(feed) || PyTuple_GET_SIZE(feed) != 3
            || !PyTuple_Check(PyTuple_GET_ITEM(feed, 1))) {
            if (!PyErr_Occurred()) {
                PyErr_SetString(PyExc_TypeError, "fold core: a fed row's type has no feed");
            }
            goto done;
        }
        bounds(moment, unit->size, unit->slide, &low, &high);
        if (fold_row(feed, low, high, &ops, &created, &armings) < 0) {
            goto done;
        }
    }
    if (step_long(engine, s_ops, ops, &total) == 0
        && step_long(engine, s_coeff_entries, created, &total) == 0
        && step_long(engine, s_armed_entries, armings, &total) == 0) {
        status = 1;
    }
done:
    Py_XDECREF(feeds);
    Py_XDECREF(eager);
    Py_XDECREF(columns);
    Py_XDECREF(latest);
    Py_XDECREF(unsettled);
    Py_XDECREF(deferred);
    Py_XDECREF(last[0]);
    Py_XDECREF(last[1]);
    return status;
}

/* One group's segment: folded in place (fold_direct), else as the
 * reference's _flush_static hands it over: its rows' columns gathered and
 * folded, untimed, by the engine's process_block_run.  Lists, not tuples:
 * a tuple under 20 items goes to a free list of 2,000 per size when freed,
 * which would hold the segments' columns as live memory. */
static int
fold_group(Walk *self, unit_walk *unit, PyObject *group, const long long *rows, Py_ssize_t count)
{
    enum { TYPES, TIMES, SEQUENCES, LOWS, HIGHS, CONTRIBUTIONS, ROWS_OF, COLUMNS };
    PyObject *column[COLUMNS] = {NULL}, *views = NULL, *folded = NULL;
    PyObject **engine = member(&groups, group, ENGINE);
    int status = engine == NULL ? -1 : unit->cursor == Py_None ? 0
                                     : fold_direct(self, unit, *engine, rows, count);
    if (status != 0) {
        in_place += status > 0;
        return status < 0 ? -1 : 0;
    }
    handed_over += 1;
    status = -1;
    for (int which = 0; which < COLUMNS; which++) {
        int none = (which == CONTRIBUTIONS && unit->contributions == Py_None)
                   || (which == ROWS_OF && unit->views == Py_None);
        if ((column[which] = none ? Py_NewRef(Py_None) : PyList_New(count)) == NULL) {
            goto done;
        }
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        double time;
        long long code, low, high;
        Py_ssize_t at = self->base + rows[i];
        if (column_double(&self->times, at, &time) < 0
            || column_long(&self->types, at, &code) < 0) {
            goto done;
        }
        code = code < 0 ? code + self->type_count : code;
        bounds(time, unit->size, unit->slide, &low, &high);
        PyList_SET_ITEM(column[TYPES], i, Py_NewRef(PyTuple_GET_ITEM(self->type_table, code)));
        PyList_SET_ITEM(column[TIMES], i, column_object(&self->times, at));
        PyList_SET_ITEM(column[SEQUENCES], i, column_object(&self->sequences, at));
        PyList_SET_ITEM(column[LOWS], i, PyLong_FromLongLong(low));
        PyList_SET_ITEM(column[HIGHS], i, PyLong_FromLongLong(high));
        if (unit->views != Py_None) {
            PyList_SET_ITEM(column[ROWS_OF], i, PyLong_FromLongLong(rows[i]));
        }
        if (unit->contributions != Py_None) {
            PyList_SET_ITEM(column[CONTRIBUTIONS], i,
                            PySequence_GetItem(unit->contributions, rows[i]));
        }
        if (PyErr_Occurred()) {
            goto done;
        }
    }
    views = unit->views == Py_None ? Py_NewRef(Py_None)
                                   : PyObject_CallOneArg(unit->views, column[ROWS_OF]);
    folded = views ? PyObject_CallMethodObjArgs(*engine, s_process_block_run, column[TYPES],
                                                column[TIMES], column[SEQUENCES], column[LOWS],
                                                column[HIGHS], column[CONTRIBUTIONS], views, NULL)
                   : NULL;
    status = folded ? 0 : -1;
done:
    for (int which = 0; which < COLUMNS; which++) {
        Py_XDECREF(column[which]);
    }
    Py_XDECREF(views);
    Py_XDECREF(folded);
    return status;
}

static PyObject *
walk_fold(Walk *self, PyObject *Py_UNUSED(args))
{
    for (Py_ssize_t k = 0; k < self->attached; k++) {
        Py_ssize_t index = self->touched[k];
        unit_walk *unit = &self->units[index];
        Py_ssize_t count = unit->entries, slots = unit->slots;
        if (count == 0) {
            continue;
        }
        /* Counting sort of the fed (row, slot) pairs into one run per slot
         * (stable: each run stays in row order), after the pairs. */
        long long *entries = room(unit, 3 * count + slots + 1);
        if (entries == NULL) {
            return NULL;
        }
        long long *sorted = entries + 2 * count, *ends = sorted + count;
        memset(ends, 0, (slots + 1) * sizeof(long long));
        for (Py_ssize_t i = 0; i < count; i++) {
            ends[entries[2 * i + 1] + 1] += 1;
        }
        for (Py_ssize_t slot = 0; slot < slots; slot++) {
            ends[slot + 1] += ends[slot];
        }
        for (Py_ssize_t i = 0; i < count; i++) {
            sorted[ends[entries[2 * i + 1]]++] = entries[2 * i];
        }
        /* ``ends[slot]`` is now where the run of ``slot`` ends. */
        for (Py_ssize_t slot = 0; slot < slots; slot++) {
            long long begin = slot ? ends[slot - 1] : 0;
            /* The walk's buffer export keeps the scratch from moving. */
            PyObject *group = unit->slot_group[slot];
            if (fold_group(self, unit, group, sorted + begin, ends[slot] - begin) < 0) {
                return NULL;
            }
        }
        for (Py_ssize_t slot = 0; slot < slots; slot++) {
            unit->slot_of[unit->slot_code[slot]] = -1;
            Py_CLEAR(unit->slot_group[slot]);
        }
        unit->entries = unit->slots = 0;
    }
    Py_RETURN_NONE;
}

static PyObject *
cover_counts(PyObject *Py_UNUSED(module), PyObject *Py_UNUSED(args))
{
    return Py_BuildValue("KK", walked_rows, handed_rows);
}

static PyObject *
segment_counts(PyObject *Py_UNUSED(module), PyObject *Py_UNUSED(args))
{
    return Py_BuildValue("KK", in_place, handed_over);
}

static PyMethodDef walk_methods[] = {
    {"attach", (PyCFunction)walk_attach, METH_VARARGS,
     "attach(index, unit, groups, table, codes, resolved, armed, qualifies, contributions, views,"
     " cursor, size, slide, scratch)"},
    {"run", (PyCFunction)walk_run, METH_VARARGS,
     "run(row, prepared) -> (row, reason, unit, rows fed)"},
    {"fold", (PyCFunction)walk_fold, METH_NOARGS, "fold() every group's fed rows"},
    {"close", (PyCFunction)walk_close, METH_NOARGS, "close(): release the columns"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject walk_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_foldcore.Walk",
    .tp_basicsize = sizeof(Walk),
    .tp_dealloc = (destructor)walk_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "The Cover stage's walk over one block (see runtime/cover.py).",
    .tp_methods = walk_methods,
    .tp_init = (initproc)walk_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* sweep_unit: the Close/Emit stage of one unit (runtime/close.py)     */
/* ------------------------------------------------------------------ */

/* The two objects a close builds: WindowValues and the one row type,
 * WindowResult (slotted classes with no __init__ logic, filled slot by slot
 * in field order). */
static layout values_row = {NULL, 2, {"layout", "slots"}, {0}};
static layout window_row = {NULL, 8, {"group_key", "window_index", "window_start", "window_end",
                                      "results", "events", "emission_latency", "retraction"}, {0}};


/* ``a <= b`` as Python compares them (exactly, for an int past 2**53). */
static int
at_or_before(PyObject *a, PyObject *b)
{
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b)) {
        return PyFloat_AS_DOUBLE(a) <= PyFloat_AS_DOUBLE(b);
    }
    return PyObject_RichCompareBool(a, b, Py_LE);
}

/* The ExecutionMetrics fields a close records, folded in C over one unit
 * sweep and stored back at its end (or at an error).  No engine seconds: a
 * streaming run leaves total_seconds and max_latency to the batch executor. */
static const char *tally_names[] = {"emission_seconds", "max_emission_latency", "partitions",
                                    "events_processed", "peak_memory_units", "operations",
                                    "emissions"};
enum { EMISSION_SECONDS, MAX_EMISSION, FLOATS,
       PARTITIONS = FLOATS, EVENTS_PROCESSED, PEAK_MEMORY, OPERATIONS, EMISSIONS, TALLIES };
typedef struct {
    double real[FLOATS];
    long long count[TALLIES - FLOATS];
} tally;

static int
tally_read(PyObject *metrics, tally *into)
{
    for (int which = 0; which < TALLIES; which++) {
        PyObject *value = PyObject_GetAttrString(metrics, tally_names[which]);
        if (value == NULL) {
            return -1;
        }
        if (which < FLOATS) {
            into->real[which] = PyFloat_AsDouble(value);
        }
        else {
            into->count[which - FLOATS] = PyLong_AsLongLong(value);
        }
        Py_DECREF(value);
        if (PyErr_Occurred()) {
            return -1;
        }
    }
    return 0;
}

/* Store the tally back, keeping any error already raised. */
static void
tally_write(PyObject *metrics, const tally *from)
{
    PyObject *type, *value, *traceback;
    PyErr_Fetch(&type, &value, &traceback);
    for (int which = 0; which < TALLIES; which++) {
        PyObject *boxed = which < FLOATS ? PyFloat_FromDouble(from->real[which])
                                         : PyLong_FromLongLong(from->count[which - FLOATS]);
        if (boxed == NULL || PyObject_SetAttrString(metrics, tally_names[which], boxed) < 0) {
            PyErr_WriteUnraisable(metrics);
        }
        Py_XDECREF(boxed);
    }
    PyErr_Restore(type, value, traceback);
}

/* What one unit sweep closes with. */
typedef struct {
    PyObject *groups, *slide, *stage, *by_layout, *totals, *rows, *recombine, *emit, *clock;
    PyObject *retire; /* takes an evicted group's engine back */
    PyObject *types[2];
    PyObject *blank; /* an array('d') of one zero per class: readouts are its copies */
    tally tally;
} sweep;

/* One expired window, in collection order. */
typedef struct {
    PyObject *key, *group, *meta;
} expiry;

static int
clock_read(sweep *of, double *out)
{
    PyObject *now = PyObject_CallNoArgs(of->clock);
    if (now == NULL) {
        return -1;
    }
    int status = as_double(now, out);
    Py_DECREF(now);
    return status;
}

/* The engine's readout of window ``index`` as its WindowValues row, the
 * engine's counters moved as foldcore.close_window moves them; its
 * operations() and memory_units() after it. */
static PyObject *
read_out(sweep *of, PyObject *engine, PyObject *index, long long *operations, long long *memory)
{
    PyObject *armed = PyObject_GetAttr(engine, s_armed), *deferred = NULL, *end_maps = NULL;
    PyObject *evict_maps = NULL, *unsettled = NULL, *unit = NULL;
    PyObject *row[2] = {NULL, NULL}, *values = NULL;
    Py_buffer view = {0};
    long long disarmed = 0, evicted = 0, armed_entries, coeff_entries, replica_entries;
    int settled = -1;
    if (armed != NULL && (unsettled = PyObject_GetAttr(engine, s_unsettled)) != NULL) {
        int truth = PyObject_IsTrue(unsettled);
        settled = truth < 0 ? -1 : !truth;
    }
    if (settled >= 0) {
        deferred = settled ? Py_NewRef(Py_None) : PyObject_GetAttr(engine, s_deferred);
    }
    if (deferred != NULL && (end_maps = PyObject_GetAttr(engine, s_end_maps)) != NULL) {
        evict_maps = PyObject_GetAttr(engine, s_evict_maps);
    }
    if (evict_maps == NULL) {
        goto done;
    }
    if (!PyList_Check(armed) || !PyList_Check(end_maps) || !PyTuple_Check(evict_maps)) {
        PyErr_SetString(PyExc_TypeError, "sweep_unit: malformed engine state");
        goto done;
    }
    Py_ssize_t classes = PyList_GET_SIZE(armed);
    if (of->blank == NULL) {
        PyObject *zeros = PyBytes_FromStringAndSize(NULL, classes * (Py_ssize_t)sizeof(double));
        if (zeros != NULL) {
            memset(PyBytes_AS_STRING(zeros), 0, classes * sizeof(double));
            of->blank = PyObject_CallFunctionObjArgs(array_type, typecode, zeros, NULL);
            Py_DECREF(zeros);
        }
    }
    row[1] = of->blank ? PyObject_CallMethodNoArgs(of->blank, s_copy) : NULL;
    if (row[1] == NULL || PyObject_GetBuffer(row[1], &view, PyBUF_WRITABLE) < 0) {
        goto done;
    }
    if (view.len != classes * (Py_ssize_t)sizeof(double)) {
        PyErr_SetString(PyExc_ValueError, "sweep_unit: one unit's engines read out alike");
        goto done;
    }
    if (read_scalar(index, armed, deferred, end_maps, evict_maps, view.buf, &disarmed,
                    &evicted) < 0
        || step_long(engine, s_armed_entries, -disarmed, &armed_entries) < 0
        || step_long(engine, s_coeff_entries, -evicted, &coeff_entries) < 0
        || step_long(engine, s_ops, classes, operations) < 0
        || get_long(engine, s_replica_entries, &replica_entries) < 0
        || (unit = PyObject_GetAttr(engine, s_unit)) == NULL) {
        goto done;
    }
    *memory = coeff_entries + replica_entries + armed_entries; /* one unit per scalar entry */
    PyBuffer_Release(&view);
    row[0] = PyObject_GetAttr(unit, s_layout);
    values = build(&values_row, of->types[0], row);
    row[1] = NULL; /* build took it */
done:
    if (view.obj != NULL) {
        PyBuffer_Release(&view);
    }
    Py_XDECREF(row[1]);
    Py_XDECREF(armed);
    Py_XDECREF(unsettled);
    Py_XDECREF(deferred);
    Py_XDECREF(end_maps);
    Py_XDECREF(evict_maps);
    Py_XDECREF(unit);
    return values;
}

/* ``totals.add(values)``: the row's slots added in place to its layout's
 * sums. */
static int
total(sweep *of, PyObject *values)
{
    PyObject **layout_at = member(&values_row, values, 0), **slots = member(&values_row, values, 1);
    if (layout_at == NULL || slots == NULL) {
        return -1;
    }
    PyObject *sums = PyDict_GetItemWithError(of->by_layout, *layout_at);
    if (sums == NULL && PyErr_Occurred()) {
        return -1;
    }
    sums = sums ? Py_NewRef(sums) : PyObject_CallMethodOneArg(of->totals, s_sums_of, values);
    if (sums == NULL) {
        return -1;
    }
    Py_buffer into, from;
    int status = -1;
    if (PyObject_GetBuffer(sums, &into, PyBUF_FORMAT | PyBUF_WRITABLE) == 0) {
        if (PyObject_GetBuffer(*slots, &from, PyBUF_FORMAT) == 0) {
            if (strcmp(into.format, "d") || strcmp(from.format, "d") || into.len < from.len) {
                PyErr_SetString(PyExc_TypeError, "sweep_unit: totals and slots must be array('d')");
            }
            else {
                double *sum = into.buf;
                const double *value = from.buf;
                for (Py_ssize_t i = 0; i < from.len / 8; i++) {
                    sum[i] += value[i];
                }
                status = 0;
            }
            PyBuffer_Release(&from);
        }
        PyBuffer_Release(&into);
    }
    Py_DECREF(sums);
    return status;
}

/* Close one expired window, as CloseStage._close_window does (its meta
 * still in the group: popped first); the clock is read once, for the
 * emission latency. */
static int
close_one(sweep *of, const expiry *window)
{
    PyObject **open = member(&groups, window->group, METAS), **engine = NULL;
    PyObject **fed = NULL, **arrival = NULL, **reported = NULL;
    PyObject **index = member(&window_metas, window->meta, INDEX);
    PyObject **end = member(&window_metas, window->meta, END);
    PyObject **opened = member(&window_metas, window->meta, OPENED);
    PyObject **active = member(&stages, of->stage, ACTIVE);
    PyObject **closed = member(&stages, of->stage, CLOSED);
    if (open == NULL || index == NULL || end == NULL || opened == NULL || active == NULL
        || closed == NULL
        || (engine = member(&groups, window->group, ENGINE)) == NULL
        || (fed = member(&groups, window->group, FED)) == NULL
        || (arrival = member(&groups, window->group, ARRIVAL)) == NULL
        || (reported = member(&groups, window->group, REPORTED)) == NULL) {
        return -1;
    }
    PyObject *key = Py_NewRef(*index), *values = NULL;
    int status = -1;
    double ended, last = 0.0, latency;
    long long events, fed_now, fed_then, operations = 0, memory = 0, reported_then;
    if (PyDict_DelItem(*open, key) < 0 || bump(active, -1) < 0 || bump(closed, 1) < 0
        || (values = read_out(of, *engine, key, &operations, &memory)) == NULL) {
        goto done;
    }
    if (PyDict_GET_SIZE(*open) == 0 && PyDict_DelItem(of->groups, window->key) < 0) {
        goto done;
    }
    if (clock_read(of, &ended) < 0 || (fed_now = PyLong_AsLongLong(*fed), PyErr_Occurred())
        || (fed_then = PyLong_AsLongLong(*opened), PyErr_Occurred())) {
        goto done;
    }
    events = fed_now - fed_then;
    if (events && as_double(*arrival, &last) < 0) {
        goto done;
    }
    latency = events ? ended - last : 0.0;
    if ((reported_then = PyLong_AsLongLong(*reported), PyErr_Occurred())
        || bump(reported, operations - reported_then) < 0) {
        goto done;
    }
    if (PyDict_GET_SIZE(*open) == 0) { /* read out: the free list takes the engine */
        PyObject *retired = PyObject_CallOneArg(of->retire, *engine);
        if (retired == NULL) {
            goto done;
        }
        Py_DECREF(retired);
    }
    /* metrics.record_partition + record_emission */
    tally *sums = &of->tally;
    sums->count[PARTITIONS - FLOATS] += 1;
    sums->count[EVENTS_PROCESSED - FLOATS] += events;
    if (memory > sums->count[PEAK_MEMORY - FLOATS]) {
        sums->count[PEAK_MEMORY - FLOATS] = memory;
    }
    sums->count[OPERATIONS - FLOATS] += operations - reported_then;
    sums->count[EMISSIONS - FLOATS] += 1;
    sums->real[EMISSION_SECONDS] += latency;
    if (latency > sums->real[MAX_EMISSION]) {
        sums->real[MAX_EMISSION] = latency;
    }
    if (total(of, values) < 0) {
        goto done;
    }
    PyObject *fields[8] = {
        Py_NewRef(window->key), Py_NewRef(key), PyNumber_Multiply(key, of->slide),
        Py_NewRef(*end), Py_NewRef(values), PyLong_FromLongLong(events),
        PyFloat_FromDouble(latency), Py_NewRef(Py_False),
    };
    PyObject *row = build(&window_row, of->types[1], fields), *emitted = NULL;
    if (row == NULL || (of->recombine != Py_None && PyList_Append(of->recombine, row) < 0)
        || (of->rows != Py_None && PyList_Append(of->rows, row) < 0)
        || (of->emit != Py_None && (emitted = PyObject_CallOneArg(of->emit, row)) == NULL)) {
        Py_XDECREF(row);
        goto done;
    }
    Py_XDECREF(emitted);
    Py_DECREF(row);
    status = 0;
done:
    Py_DECREF(key);
    Py_XDECREF(values);
    return status;
}

/* The earliest first end over the groups' open windows (inf: none), as
 * ``min(..., default=inf)`` picks it. */
static PyObject *
next_end(PyObject *groups_map)
{
    Py_ssize_t position = 0;
    PyObject *key, *group, *best = NULL;
    while (PyDict_Next(groups_map, &position, &key, &group)) {
        PyObject **open = member(&groups, group, METAS);
        if (open == NULL || !PyDict_CheckExact(*open)) {
            if (open != NULL) {
                PyErr_SetString(PyExc_TypeError, "sweep_unit: a group's metas must be a dict");
            }
            return NULL;
        }
        Py_ssize_t at = 0;
        PyObject *index, *meta;
        if (!PyDict_Next(*open, &at, &index, &meta)) {
            continue;
        }
        PyObject **end = member(&window_metas, meta, END);
        int earlier = end == NULL    ? -1
                      : best == NULL ? 1
                                     : PyObject_RichCompareBool(*end, best, Py_LT);
        if (earlier < 0) {
            return NULL;
        }
        if (earlier) {
            best = *end;
        }
    }
    return best ? Py_NewRef(best) : PyFloat_FromDouble(INFINITY);
}

static PyObject *
sweep_unit(PyObject *Py_UNUSED(module), PyObject *args)
{
    sweep of = {.blank = NULL};
    PyObject *now, *metrics, *types, *result = NULL, *order = NULL;
    if (!PyArg_ParseTuple(args, "O!OOOOOOOOOO!O:sweep_unit", &PyDict_Type, &of.groups, &now,
                          &of.slide, &of.stage, &metrics, &of.totals, &of.rows, &of.recombine,
                          &of.emit, &of.clock, &PyTuple_Type, &types, &of.retire)) {
        return NULL;
    }
    if (PyTuple_GET_SIZE(types) != 2 || (of.rows != Py_None && !PyList_Check(of.rows))
        || (of.recombine != Py_None && !PyList_Check(of.recombine))) {
        PyErr_SetString(PyExc_TypeError, "sweep_unit: malformed sinks");
        return NULL;
    }
    for (int which = 0; which < 2; which++) {
        of.types[which] = PyTuple_GET_ITEM(types, which);
        if (!PyType_Check(of.types[which])) {
            PyErr_SetString(PyExc_TypeError, "sweep_unit: the row classes must be types");
            return NULL;
        }
    }
    if ((of.by_layout = PyObject_GetAttr(of.totals, s_by_layout)) == NULL) {
        return NULL;
    }
    if (!PyDict_CheckExact(of.by_layout) || tally_read(metrics, &of.tally) < 0) {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_TypeError, "sweep_unit: malformed totals");
        }
        Py_DECREF(of.by_layout);
        return NULL;
    }
    expiry *expired = NULL;
    Py_ssize_t count = 0, capacity = 0, *sequence = NULL;
    /* Collect: per group, its open windows up to the first not yet passed. */
    Py_ssize_t position = 0;
    PyObject *key, *group;
    while (PyDict_Next(of.groups, &position, &key, &group)) {
        PyObject **open = member(&groups, group, METAS);
        if (open == NULL || !PyDict_CheckExact(*open)) {
            if (open != NULL) {
                PyErr_SetString(PyExc_TypeError, "sweep_unit: a group's metas must be a dict");
            }
            goto done;
        }
        Py_ssize_t at = 0;
        PyObject *index, *meta;
        while (PyDict_Next(*open, &at, &index, &meta)) {
            PyObject **end = member(&window_metas, meta, END);
            int passed = end == NULL ? -1 : at_or_before(*end, now);
            if (passed < 0) {
                goto done;
            }
            if (!passed) {
                break;
            }
            if (count == capacity) {
                capacity = 2 * capacity + 16;
                expiry *grown = PyMem_Realloc(expired, capacity * sizeof(expiry));
                if (grown == NULL) {
                    PyErr_NoMemory();
                    goto done;
                }
                expired = grown;
            }
            expired[count++] = (expiry){Py_NewRef(key), Py_NewRef(group), Py_NewRef(meta)};
        }
    }
    /* Order: (end, group sort key, index), ties in collection order. */
    sequence = PyMem_Malloc((count + 1) * sizeof(Py_ssize_t));
    if (sequence == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        sequence[i] = i;
    }
    if (count > 1) {
        if ((order = PyList_New(count)) == NULL) {
            goto done;
        }
        for (Py_ssize_t i = 0; i < count; i++) {
            PyObject **end = member(&window_metas, expired[i].meta, END);
            PyObject **index = member(&window_metas, expired[i].meta, INDEX);
            PyObject **rank = member(&groups, expired[i].group, SORT_KEY);
            PyObject *item = end && index && rank
                                 ? Py_BuildValue("OOOn", *end, *rank, *index, i) : NULL;
            if (item == NULL) {
                goto done;
            }
            PyList_SET_ITEM(order, i, item);
        }
        if (PyList_Sort(order) < 0) {
            goto done;
        }
        for (Py_ssize_t i = 0; i < count; i++) {
            sequence[i] = PyLong_AsSsize_t(PyTuple_GET_ITEM(PyList_GET_ITEM(order, i), 3));
        }
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        if (close_one(&of, &expired[sequence[i]]) < 0) {
            goto done;
        }
    }
    result = next_end(of.groups);
done:
    tally_write(metrics, &of.tally);
    for (Py_ssize_t i = 0; i < count; i++) {
        Py_DECREF(expired[i].key);
        Py_DECREF(expired[i].group);
        Py_DECREF(expired[i].meta);
    }
    PyMem_Free(expired);
    PyMem_Free(sequence);
    Py_XDECREF(order);
    Py_XDECREF(of.blank);
    Py_DECREF(of.by_layout);
    return result;
}

/* ------------------------------------------------------------------ */
/* Decoded events                                                      */
/* ------------------------------------------------------------------ */

/* An Event's four slots. */
static layout event_slots = {NULL, 4, {"event_type", "time", "payload", "sequence"}, {0}};
enum { EVENT_TYPE, EVENT_TIME, EVENT_PAYLOAD, EVENT_SEQUENCE };

/* One key shape of a frame: where its payload columns start among all of
 * them, how many it has, the next of its rows to read, and its row count. */
typedef struct {
    Py_ssize_t first, keys, next, rows;
} shape_rows;

static void
set_slot(PyObject *event, int which, PyObject *value)
{
    *(PyObject **)((char *)event + event_slots.offsets[which]) = value;
}

/* columnar.decode_columnar_events's events, built from a parsed frame's
 * columns: per row a payload dict in its shape's key order, and an Event
 * allocated by its type and given its four slots (no __init__: the values
 * were validated when the events were first created). */
static PyObject *
assemble_events(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyTypeObject *type;
    PyObject *times, *sequences, *type_table, *type_codes, *key_table, *key_codes, *shapes;
    Py_ssize_t count;
    if (!PyArg_ParseTuple(args, "O!nOOO!OO!OO!:assemble_events", &PyType_Type, &type, &count,
                          &times, &sequences, &PyList_Type, &type_table, &type_codes,
                          &PyList_Type, &key_table, &key_codes, &PyList_Type, &shapes)) {
        return NULL;
    }
    if (event_slots.type != type && bind(&event_slots, type) < 0) {
        return NULL;
    }
    Py_ssize_t shape_count = PyList_GET_SIZE(key_table), type_count = PyList_GET_SIZE(type_table);
    PyObject *sources[4] = {times, sequences, type_codes, key_codes};
    column rows[4], *values = NULL;
    shape_rows *shape = NULL;
    Py_ssize_t opened = 0, value_count = 0, values_opened = 0;
    PyObject *result = NULL;
    if (count < 0 || PyList_GET_SIZE(shapes) != shape_count) {
        PyErr_SetString(PyExc_ValueError, "assemble_events: malformed frame");
        return NULL;
    }
    for (; opened < 4; opened++) {
        if (column_open(&rows[opened], sources[opened], count) < 0) {
            column_close(&rows[opened]);
            goto done;
        }
    }
    if ((shape = PyMem_Calloc(shape_count + 1, sizeof(shape_rows))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t row = 0; row < count; row++) {
        long long code;
        if (column_long(&rows[3], row, &code) < 0) {
            goto done;
        }
        if (code < 0 || code >= shape_count) {
            PyErr_SetString(PyExc_ValueError, "assemble_events: a key code outside its table");
            goto done;
        }
        shape[code].rows++;
    }
    for (Py_ssize_t code = 0; code < shape_count; code++) {
        PyObject *keys = PyList_GET_ITEM(key_table, code), *columns = PyList_GET_ITEM(shapes, code);
        if (!PyTuple_Check(keys) || !PyList_Check(columns)
            || PyList_GET_SIZE(columns) != PyTuple_GET_SIZE(keys)) {
            PyErr_SetString(PyExc_TypeError, "assemble_events: a shape is keys and columns");
            goto done;
        }
        shape[code].first = value_count;
        value_count += shape[code].keys = PyTuple_GET_SIZE(keys);
    }
    if ((values = PyMem_Calloc(value_count + 1, sizeof(column))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t code = 0; code < shape_count; code++) {
        for (Py_ssize_t key = 0; key < shape[code].keys; key++, values_opened++) {
            PyObject *source = PyList_GET_ITEM(PyList_GET_ITEM(shapes, code), key);
            if (column_open(&values[values_opened], source, shape[code].rows) < 0) {
                column_close(&values[values_opened]);
                goto done;
            }
        }
    }
    if ((result = PyList_New(count)) == NULL) {
        goto done;
    }
    for (Py_ssize_t row = 0; row < count; row++) {
        long long type_code, code;
        if (column_long(&rows[2], row, &type_code) < 0 || column_long(&rows[3], row, &code) < 0) {
            goto fail;
        }
        if (type_code < 0 || type_code >= type_count) {
            PyErr_SetString(PyExc_ValueError, "assemble_events: a type code outside its table");
            goto fail;
        }
        PyObject *keys = PyList_GET_ITEM(key_table, code), *payload = PyDict_New();
        if (payload == NULL) {
            goto fail;
        }
        shape_rows *of = &shape[code];
        for (Py_ssize_t key = 0; key < of->keys; key++) {
            PyObject *value = column_object(&values[of->first + key], of->next);
            if (value == NULL || PyDict_SetItem(payload, PyTuple_GET_ITEM(keys, key), value) < 0) {
                Py_XDECREF(value);
                Py_DECREF(payload);
                goto fail;
            }
            Py_DECREF(value);
        }
        of->next++;
        PyObject *time = column_object(&rows[0], row), *sequence = column_object(&rows[1], row);
        PyObject *event = time && sequence ? type->tp_alloc(type, 0) : NULL;
        if (event == NULL) {
            Py_XDECREF(time);
            Py_XDECREF(sequence);
            Py_DECREF(payload);
            goto fail;
        }
        set_slot(event, EVENT_TYPE, Py_NewRef(PyList_GET_ITEM(type_table, type_code)));
        set_slot(event, EVENT_TIME, time);
        set_slot(event, EVENT_PAYLOAD, payload);
        set_slot(event, EVENT_SEQUENCE, sequence);
        PyList_SET_ITEM(result, row, event);
    }
    goto done;
fail:
    Py_CLEAR(result);
done:
    for (Py_ssize_t i = 0; i < opened; i++) {
        column_close(&rows[i]);
    }
    for (Py_ssize_t i = 0; i < values_opened; i++) {
        column_close(&values[i]);
    }
    PyMem_Free(values);
    PyMem_Free(shape);
    return result;
}

/* ------------------------------------------------------------------ */
/* Group codes of a typed key column                                   */
/* ------------------------------------------------------------------ */

/* A key's slot hash: MurmurHash3's fmix64, so keys apart only in their
 * high bits still spread over a small table's low bits. */
static inline unsigned long long
key_hash(unsigned long long bits)
{
    bits ^= bits >> 33;
    bits *= 0xff51afd7ed558ccdULL;
    bits ^= bits >> 33;
    bits *= 0xc4ceb9fe1a85ec53ULL;
    return bits ^ (bits >> 33);
}

/* block.group_codes of one array('q') key column, as (table, codes): the
 * distinct values in first-appearance order, each a 1-tuple of its int,
 * and one array('I') code per row.  An open-addressing table on the
 * values, kept at least twice the keys in size, stands in for the dict. */
static PyObject *
group_codes(PyObject *Py_UNUSED(module), PyObject *source)
{
    PyObject *keys = NULL, *bytes = NULL, *result = NULL;
    column of;
    if (column_open(&of, source, 0) < 0 || of.format != 'q') {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_TypeError, "group_codes: the column must be array('q')");
        }
        column_close(&of);
        return NULL;
    }
    Py_ssize_t count = of.view.len / 8, mask = -1, distinct = 0;
    Py_ssize_t *slot_code = NULL; /* per slot: its key's code, -1: empty */
    long long *key_of = NULL;     /* per code: its key */
    keys = PyList_New(0);
    bytes = PyBytes_FromStringAndSize(NULL, count * sizeof(unsigned int));
    if (keys == NULL || bytes == NULL) {
        goto done;
    }
    unsigned int *codes = (unsigned int *)PyBytes_AS_STRING(bytes);
    const long long *column_keys = (const long long *)of.view.buf;
    for (Py_ssize_t row = 0; row < count; row++) {
        long long key = column_keys[row];
        if (2 * (distinct + 1) > mask + 1) { /* double the table, and rehash */
            mask = mask < 0 ? 31 : 2 * mask + 1;
            long long *grown = PyMem_Realloc(key_of, (mask + 1) / 2 * sizeof(long long));
            key_of = grown == NULL ? key_of : grown;
            PyMem_Free(slot_code);
            slot_code = PyMem_Malloc((mask + 1) * sizeof(Py_ssize_t));
            if (grown == NULL || slot_code == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            memset(slot_code, -1, (mask + 1) * sizeof(Py_ssize_t));
            for (Py_ssize_t code = 0; code < distinct; code++) {
                Py_ssize_t at = (Py_ssize_t)key_hash((unsigned long long)key_of[code]) & mask;
                while (slot_code[at] >= 0) {
                    at = (at + 1) & mask;
                }
                slot_code[at] = code;
            }
        }
        Py_ssize_t at = (Py_ssize_t)key_hash((unsigned long long)key) & mask;
        while (slot_code[at] >= 0 && key_of[slot_code[at]] != key) {
            at = (at + 1) & mask;
        }
        if (slot_code[at] < 0) {
            PyObject *value = PyLong_FromLongLong(key);
            PyObject *entry = value == NULL ? NULL : PyTuple_Pack(1, value);
            Py_XDECREF(value);
            if (entry == NULL || PyList_Append(keys, entry) < 0) {
                Py_XDECREF(entry);
                goto done;
            }
            Py_DECREF(entry);
            key_of[distinct] = key;
            slot_code[at] = distinct++;
        }
        codes[row] = (unsigned int)slot_code[at];
    }
    PyObject *table = PyList_AsTuple(keys);
    PyObject *array = table == NULL ? NULL : PyObject_CallFunction(array_type, "sO", "I", bytes);
    result = array == NULL ? NULL : PyTuple_Pack(2, table, array);
    Py_XDECREF(table);
    Py_XDECREF(array);
done:
    column_close(&of);
    PyMem_Free(slot_code);
    PyMem_Free(key_of);
    Py_XDECREF(keys);
    Py_XDECREF(bytes);
    return result;
}

/* ------------------------------------------------------------------ */
/* Column kernels: facts about a frame's typed columns                 */
/* ------------------------------------------------------------------ */

/* A new array('d' / 'q' / 'I') of ``count`` zeroed items, sized exactly,
 * and its writable buffer in ``view``. */
static PyObject *
new_array(char code, Py_ssize_t count, Py_buffer *view)
{
    PyObject *made = PySequence_Repeat(templates[code == 'd' ? 0 : code == 'q' ? 1 : 2], count);
    if (made != NULL && PyObject_GetBuffer(made, view, PyBUF_WRITABLE) < 0) {
        Py_CLEAR(made);
    }
    return made;
}

/* ``source`` as a typed array of a typecode in ``codes`` holding at least
 * ``stop`` items, with ``0 <= start <= stop``: 1; a list or another kind
 * of column: 0 (nothing held). */
static int
typed_open(column *of, PyObject *source, Py_ssize_t start, Py_ssize_t stop, const char *codes)
{
    of->list = NULL;
    of->view.obj = NULL;
    if (!PyObject_CheckBuffer(source)) {
        return 0;
    }
    if (PyObject_GetBuffer(source, &of->view, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0) {
        return -1;
    }
    const char *format = of->view.format;
    of->format = format != NULL && format[0] != '\0' && format[1] == '\0' ? format[0] : 0;
    if (of->format == 0 || strchr(codes, of->format) == NULL
        || of->view.itemsize != (of->format == 'I' ? 4 : 8)) {
        column_close(of);
        return 0;
    }
    if (start < 0 || start > stop || of->view.len / of->view.itemsize < stop) {
        column_close(of);
        PyErr_SetString(PyExc_ValueError, "fold core: a row range outside its column");
        return -1;
    }
    return 1;
}

/* ``list.append(value)`` for an index. */
static int
append_index(PyObject *list, Py_ssize_t value)
{
    PyObject *boxed = PyLong_FromSsize_t(value);
    int status = boxed == NULL ? -1 : PyList_Append(list, boxed);
    Py_XDECREF(boxed);
    return status;
}

/* Facts about ``times[start:stop]``, an array('d') or array('q'): (the
 * first row of its least value, NaN aside; the first row of a NaN or an
 * infinity; the first row not at or above the row before it) -- each -1
 * if none; or None for a list.  An int64 is compared as one. */
static PyObject *
time_scan(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *source;
    Py_ssize_t start, stop, low = -1, bad = -1, descent = -1;
    column of;
    if (!PyArg_ParseTuple(args, "Onn:time_scan", &source, &start, &stop)) {
        return NULL;
    }
    int typed = typed_open(&of, source, start, stop, "dq");
    if (typed <= 0) {
        return typed < 0 ? NULL : Py_NewRef(Py_None);
    }
    if (of.format == 'd') {
        const double *at = of.view.buf;
        for (Py_ssize_t row = start; row < stop; row++) {
            double value = at[row];
            if (bad < 0 && !isfinite(value)) {
                bad = row;
            }
            if (descent < 0 && row > start && !(at[row - 1] <= value)) {
                descent = row;
            }
            if (value == value && (low < 0 || value < at[low])) {
                low = row;
            }
        }
    }
    else {
        const long long *at = of.view.buf;
        for (Py_ssize_t row = start; row < stop; row++) {
            if (descent < 0 && row > start && at[row - 1] > at[row]) {
                descent = row;
            }
            if (low < 0 || at[row] < at[low]) {
                low = row;
            }
        }
    }
    column_close(&of);
    return Py_BuildValue("nnn", low, bad, descent);
}

/* One pass over an array('I') of codes into a table of ``table`` entries:
 * (the highest code, -1 if none; with ``slots``, each code's row count --
 * a list -- and each row's rank among its code's rows -- an array('I') --
 * else None twice).  A code past the table counts toward the highest only. */
static PyObject *
code_scan(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *source, *occupancy = NULL, *ranks = NULL, *result = NULL;
    Py_ssize_t table, *seen = NULL;
    int slots;
    column of;
    Py_buffer out = {.obj = NULL};
    if (!PyArg_ParseTuple(args, "Onp:code_scan", &source, &table, &slots)) {
        return NULL;
    }
    if (table < 0 || typed_open(&of, source, 0, 0, "I") <= 0) {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_TypeError, "code_scan: the codes must be array('I')");
        }
        return NULL;
    }
    Py_ssize_t count = of.view.len / 4;
    const unsigned int *codes = of.view.buf;
    long long highest = -1;
    if (!slots) {
        for (Py_ssize_t row = 0; row < count; row++) {
            highest = codes[row] > highest ? codes[row] : highest;
        }
        result = Py_BuildValue("LOO", highest, Py_None, Py_None);
        goto done;
    }
    if ((seen = PyMem_Calloc(table + 1, sizeof(Py_ssize_t))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if ((ranks = new_array('I', count, &out)) == NULL) {
        goto done;
    }
    unsigned int *rank = out.buf;
    for (Py_ssize_t row = 0; row < count; row++) {
        unsigned int code = codes[row];
        highest = code > highest ? code : highest;
        if (code < table) {
            rank[row] = (unsigned int)seen[code]++;
        }
    }
    if ((occupancy = PyList_New(table)) == NULL) {
        goto done;
    }
    for (Py_ssize_t code = 0; code < table; code++) {
        PyObject *rows = PyLong_FromSsize_t(seen[code]);
        if (rows == NULL) {
            goto done;
        }
        PyList_SET_ITEM(occupancy, code, rows);
    }
    result = Py_BuildValue("LOO", highest, occupancy, ranks);
done:
    if (out.obj != NULL) {
        PyBuffer_Release(&out);
    }
    column_close(&of);
    PyMem_Free(seen);
    Py_XDECREF(occupancy);
    Py_XDECREF(ranks);
    return result;
}

/* EventBlock.select's gather: per column -- each an array('d' / 'q' /
 * 'I') -- a new array of its typecode holding ``column[base + i]`` for
 * each ``i`` of ``indices`` (a list, tuple or range of ints); or, at the
 * first index outside ``[0, length)``, that index's position in
 * ``indices``; or None for an index that is no int and for a range with
 * a bound past Py_ssize_t. */
static PyObject *
gather(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *indices, *sources, *result = NULL, *made = NULL;
    Py_ssize_t base, length, count, first = 0, step = 1, width, opened = 0, filled = 0;
    if (!PyArg_ParseTuple(args, "OnnO!:gather", &indices, &base, &length, &PyList_Type,
                          &sources)) {
        return NULL;
    }
    PyObject **items = NULL;
    if (PyList_CheckExact(indices) || PyTuple_CheckExact(indices)) {
        count = PySequence_Fast_GET_SIZE(indices);
        items = PySequence_Fast_ITEMS(indices);
    }
    else if (PyRange_Check(indices)) {
        PyObject *low = PyObject_GetAttr(indices, s_start);
        PyObject *stride = low == NULL ? NULL : PyObject_GetAttr(indices, s_step);
        first = low == NULL ? -1 : PyLong_AsSsize_t(low);
        step = stride == NULL ? -1 : PyLong_AsSsize_t(stride);
        Py_XDECREF(low);
        Py_XDECREF(stride);
        count = PyErr_Occurred() ? -1 : PyObject_Size(indices);
        if (count < 0) {
            /* A bound past Py_ssize_t: the Python pass words the error. */
            if (!PyErr_ExceptionMatches(PyExc_OverflowError)) {
                return NULL;
            }
            PyErr_Clear();
            return Py_NewRef(Py_None);
        }
    }
    else {
        PyErr_SetString(PyExc_TypeError, "gather: indices must be a list, tuple or range");
        return NULL;
    }
    if (base < 0 || length < 0) {
        PyErr_SetString(PyExc_ValueError, "gather: a negative row range");
        return NULL;
    }
    width = PyList_GET_SIZE(sources);
    column *in = PyMem_Calloc(width + 1, sizeof(column));
    Py_buffer *out = PyMem_Calloc(width + 1, sizeof(Py_buffer));
    if (in == NULL || out == NULL || (made = PyList_New(width)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (; opened < width; opened++) {
        int typed = typed_open(&in[opened], PyList_GET_ITEM(sources, opened), 0, base + length,
                               "dqI");
        if (typed <= 0) {
            if (typed == 0) {
                PyErr_SetString(PyExc_TypeError, "gather: a column must be array('d'/'q'/'I')");
            }
            goto done;
        }
    }
    for (; filled < width; filled++) {
        PyObject *array = new_array(in[filled].format, count, &out[filled]);
        if (array == NULL) {
            goto done;
        }
        PyList_SET_ITEM(made, filled, array);
    }
    for (Py_ssize_t i = 0, index = first; i < count; i++) {
        if (i > 0 && items == NULL) {
            /* The range's next index; one past Py_ssize_t is out of range. */
            index = step > 0 && index > PY_SSIZE_T_MAX - step ? -1 : index + step;
        }
        if (items != NULL) {
            if (!PyLong_Check(items[i])) {
                result = Py_NewRef(Py_None);
                goto done;
            }
            int overflow;
            long long wide = PyLong_AsLongLongAndOverflow(items[i], &overflow);
            index = overflow || wide < 0 || wide >= length ? -1 : (Py_ssize_t)wide;
        }
        if (index < 0 || index >= length) {
            result = PyLong_FromSsize_t(i);
            goto done;
        }
        for (Py_ssize_t c = 0; c < width; c++) {
            const char *from = in[c].view.buf;
            char *to = out[c].buf;
            if (in[c].format == 'I') {
                ((unsigned int *)to)[i] = ((const unsigned int *)from)[base + index];
            }
            else {
                memcpy(to + 8 * i, from + 8 * (base + index), 8);
            }
        }
    }
    result = Py_NewRef(made);
done:
    for (Py_ssize_t c = 0; c < opened; c++) {
        column_close(&in[c]);
    }
    for (Py_ssize_t c = 0; c < filled; c++) {
        PyBuffer_Release(&out[c]);
    }
    PyMem_Free(in);
    PyMem_Free(out);
    Py_XDECREF(made);
    return result;
}

/* ``value < bound``, exactly, for an int64 against a double. */
static int
below(long long value, double bound)
{
    if (bound != bound || bound < -9223372036854775808.0) {
        return 0;
    }
    double up = ceil(bound);
    return up >= 9223372036854775808.0 || value < (long long)up;
}

/* Lateness.offer_block's scan of ``times[start:stop]``, rows in any
 * order, against a reorder buffer's newest time and horizon: (the first
 * row of a NaN or an infinity, or -1; the late rows -- each strictly behind
 * the newest time before it minus the horizon; at each late row and at the
 * end, the row of the newest time so far, or -1 while that is ``newest``),
 * rows relative to ``start``.  None for a list, and where the reference's
 * arithmetic is not the double or int64 one used here: an array('d')
 * against an int newest time or a horizon past 2**53, an array('q')
 * against a float newest time other than -inf. */
static PyObject *
late_scan(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *source, *newest, *horizon, *late = NULL, *tops = NULL, *result = NULL;
    Py_ssize_t start, stop, bad = -1, top = -1;
    column of;
    if (!PyArg_ParseTuple(args, "OnnOO:late_scan", &source, &start, &stop, &newest, &horizon)) {
        return NULL;
    }
    int typed = typed_open(&of, source, start, stop, "dq");
    if (typed <= 0) {
        return typed < 0 ? NULL : Py_NewRef(Py_None);
    }
    /* A float horizon, or an int one as ``whole``; the newest time as a
     * double, or as an int64 (``none``: still -inf). */
    int real = PyFloat_CheckExact(horizon), overflow = 0;
    long long whole = 0, floor_q = 0;
    double lateness = real ? PyFloat_AS_DOUBLE(horizon) : 0.0;
    double floor_d = PyFloat_CheckExact(newest) ? PyFloat_AS_DOUBLE(newest) : 0.0;
    int none = PyFloat_CheckExact(newest) && floor_d == -INFINITY;
    if (!real && PyLong_CheckExact(horizon)) {
        whole = PyLong_AsLongLongAndOverflow(horizon, &overflow);
    }
    int usable = real || (PyLong_CheckExact(horizon) && !overflow && whole >= 0);
    if (of.format == 'd') {
        usable = usable && PyFloat_CheckExact(newest) && (real || whole <= (1LL << 53));
        lateness = real ? lateness : (double)whole;
    }
    else if (!none) {
        usable = usable && PyLong_CheckExact(newest);
        floor_q = usable ? PyLong_AsLongLongAndOverflow(newest, &overflow) : 0;
        usable = usable && !overflow;
    }
    if (!usable) {
        column_close(&of);
        return Py_NewRef(Py_None);
    }
    if ((late = PyList_New(0)) == NULL || (tops = PyList_New(0)) == NULL) {
        goto done;
    }
    for (Py_ssize_t row = start; row < stop; row++) {
        int behind;
        if (of.format == 'd') {
            double time = ((const double *)of.view.buf)[row];
            if (!isfinite(time)) {
                bad = row - start;
                break;
            }
            behind = !(time > floor_d) && time < floor_d - lateness;
            if (time > floor_d) {
                floor_d = time;
                top = row - start;
            }
        }
        else {
            long long time = ((const long long *)of.view.buf)[row];
            behind = !none && !(time > floor_q)
                     && (real ? below(time, (double)floor_q - lateness)
                             : (unsigned long long)floor_q - (unsigned long long)time
                                   > (unsigned long long)whole);
            if (none || time > floor_q) {
                floor_q = time;
                none = 0;
                top = row - start;
            }
        }
        if (behind && (append_index(late, row - start) < 0 || append_index(tops, top) < 0)) {
            goto done;
        }
    }
    if (append_index(tops, top) == 0) {
        result = Py_BuildValue("nOO", bad, late, tops);
    }
done:
    column_close(&of);
    Py_XDECREF(late);
    Py_XDECREF(tops);
    return result;
}

/* A store-free MultiWindowLinearEngine's memory_units(), off its counters
 * and its unit compilation (``*per_entry`` cached for ``*compiled``): 1;
 * an engine with an event store: 0. */
static int
linear_units(PyObject *engine, PyObject **compiled, long long *per_entry, long long *out)
{
    PyObject *store = PyObject_GetAttr(engine, s_store);
    if (store == NULL || store != Py_None) {
        Py_XDECREF(store);
        return store == NULL ? -1 : 0;
    }
    Py_DECREF(store);
    PyObject *unit = PyObject_GetAttr(engine, s_unit);
    if (unit == NULL) {
        return -1;
    }
    if (unit != *compiled) {
        PyObject *scalar = PyObject_GetAttr(unit, s_scalar);
        int is_scalar = scalar == NULL ? -1 : PyObject_IsTrue(scalar);
        Py_XDECREF(scalar);
        long long dimension = 0;
        if (is_scalar < 0 || (!is_scalar && get_long(unit, s_dimension, &dimension) < 0)) {
            Py_DECREF(unit);
            return -1;
        }
        *per_entry = is_scalar ? 1 : 1 + dimension;
        *compiled = unit;
    }
    Py_DECREF(unit); /* (the engine holds it: the cache compares identity only) */
    long long coeff, replica, armed;
    if (get_long(engine, s_coeff_entries, &coeff) < 0
        || get_long(engine, s_replica_entries, &replica) < 0
        || get_long(engine, s_armed_entries, &armed) < 0) {
        return -1;
    }
    *out = (coeff + replica) * *per_entry + armed;
    return 1;
}

/* CloseStage.open_memory_units over ``units`` (each with a ``groups``
 * dict of _Groups): per group its buffered burst plus its engine's
 * memory_units(), read off the counters of an engine of exactly the type
 * ``linear`` with no event store, else by the engine's own method. */
static PyObject *
memory_units(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *units, *linear, *compiled = NULL;
    long long total = 0, per_entry = 1;
    if (!PyArg_ParseTuple(args, "O!O!:memory_units", &PyList_Type, &units, &PyType_Type,
                          &linear)) {
        return NULL;
    }
    for (Py_ssize_t index = 0; index < PyList_GET_SIZE(units); index++) {
        PyObject *groups_map = PyObject_GetAttr(PyList_GET_ITEM(units, index), s_groups);
        if (groups_map == NULL || !PyDict_Check(groups_map)) {
            if (groups_map != NULL) {
                PyErr_SetString(PyExc_TypeError, "memory_units: a unit's groups must be a dict");
            }
            Py_XDECREF(groups_map);
            return NULL;
        }
        Py_ssize_t at = 0;
        PyObject *key, *group;
        while (PyDict_Next(groups_map, &at, &key, &group)) {
            PyObject **engine = member(&groups, group, ENGINE);
            PyObject **burst = engine == NULL ? NULL : member(&groups, group, BURST);
            Py_ssize_t buffered = burst == NULL ? -1 : PyObject_Size(*burst);
            long long units_of = 0;
            int read = buffered < 0 ? -1 : 0;
            if (read == 0 && Py_TYPE(*engine) == (PyTypeObject *)linear) {
                read = linear_units(*engine, &compiled, &per_entry, &units_of);
            }
            if (read == 0) {
                PyObject *own = PyObject_CallMethodNoArgs(*engine, s_memory_units);
                units_of = own == NULL ? -1 : PyLong_AsLongLong(own);
                Py_XDECREF(own);
                read = units_of == -1 && PyErr_Occurred() ? -1 : 1;
            }
            if (read < 0) {
                Py_DECREF(groups_map);
                return NULL;
            }
            total += units_of + buffered;
        }
        Py_DECREF(groups_map);
    }
    return PyLong_FromLongLong(total);
}

/* ------------------------------------------------------------------ */
/* fold_run                                                            */
/* ------------------------------------------------------------------ */

/* A MutableAggregate, a vector column's entry. */
static layout aggregates = {NULL, 2, {"count", "measures"}, {0}};
enum { COUNT, MEASURES };
enum { MAX_SOURCES = 64 };
static unsigned long long folded_runs = 0, folded_rows = 0;

/* ``a + b`` and ``a * b`` with ``a`` the first operand, as CPython's float
 * ops compute them: where both are NaN, x86 returns the first one's, and a
 * compiler may swap the operands of a C ``+`` or ``*``. */
#if defined(__GNUC__) && defined(__x86_64__)
static inline double
plus(double a, double b)
{
    __asm__("addsd %1, %0" : "+x"(a) : "x"(b));
    return a;
}

static inline double
times(double a, double b)
{
    __asm__("mulsd %1, %0" : "+x"(a) : "x"(b));
    return a;
}
#else
#define plus(a, b) ((a) + (b))
#define times(a, b) ((a) * (b))
#endif

/* ``entry``'s count and its first ``dimension`` measures, as doubles. */
static int
aggregate_read(PyObject *entry, double *count, double *measures, Py_ssize_t dimension)
{
    if (Py_TYPE(entry) != aggregates.type) {
        PyErr_SetString(PyExc_TypeError, "fold_run: a vector entry is not an aggregate");
        return -1;
    }
    PyObject **at = member(&aggregates, entry, COUNT), *list;
    if (at == NULL || as_double(*at, count) < 0
        || (at = member(&aggregates, entry, MEASURES)) == NULL) {
        return -1;
    }
    if (!PyList_Check(list = *at) || PyList_GET_SIZE(list) < dimension) {
        PyErr_SetString(PyExc_ValueError, "fold_run: an entry's measures are a list per measure");
        return -1;
    }
    for (Py_ssize_t position = 0; position < dimension; position++) {
        if (as_double(PyList_GET_ITEM(list, position), &measures[position]) < 0) {
            return -1;
        }
    }
    return 0;
}

/* Store the running count and measures back into ``entry`` (read above). */
static int
aggregate_write(PyObject *entry, double count, const double *measures, Py_ssize_t dimension)
{
    PyObject **at = member(&aggregates, entry, COUNT), *boxed = PyFloat_FromDouble(count);
    if (at == NULL || boxed == NULL) {
        Py_XDECREF(boxed);
        return -1;
    }
    Py_SETREF(*at, boxed);
    if ((at = member(&aggregates, entry, MEASURES)) == NULL) {
        return -1;
    }
    for (Py_ssize_t position = 0; position < dimension; position++) {
        if ((boxed = PyFloat_FromDouble(measures[position])) == NULL
            || PyList_SetItem(*at, position, boxed) < 0) {
            return -1;
        }
    }
    return 0;
}

/* A zero entry: MutableAggregate(dimension). */
static PyObject *
aggregate_new(Py_ssize_t dimension)
{
    PyObject *list = PyList_New(dimension), *values[2];
    for (Py_ssize_t position = 0; list != NULL && position < dimension; position++) {
        PyList_SET_ITEM(list, position, Py_NewRef(zero));
    }
    values[COUNT] = Py_NewRef(zero);
    values[MEASURES] = list;
    return build(&aggregates, (PyObject *)aggregates.type, values);
}

/* PythonKernelBackend.fold_scalar_run into ``target`` over the windows
 * ``keys``, window by window with the rows inside: per window the total
 * stays a double (``present``: the entry exists) and is stored once.  A
 * source that is ``target`` itself (the Kleene self-loop) reads the
 * running total. */
static int
fold_scalar(PyObject *target, PyObject **sources, Py_ssize_t source_count, PyObject **keys,
            Py_ssize_t windows, double base, Py_ssize_t count, long long *created)
{
    double values[MAX_SOURCES];
    char held[MAX_SOURCES];
    for (Py_ssize_t window = 0; window < windows && count > 0; window++) {
        PyObject *index = keys[window], *current = PyDict_GetItemWithError(target, index);
        double total = 0.0;
        int present = current != NULL;
        if (present ? as_double(current, &total) < 0 : PyErr_Occurred() != NULL) {
            return -1;
        }
        for (Py_ssize_t j = 0; j < source_count; j++) {
            PyObject *previous = sources[j] == target ? NULL
                                                     : PyDict_GetItemWithError(sources[j], index);
            held[j] = previous != NULL;
            if (previous == NULL ? PyErr_Occurred() != NULL : as_double(previous, &values[j]) < 0) {
                return -1;
            }
        }
        for (Py_ssize_t row = 0; row < count; row++) {
            double value = base;
            for (Py_ssize_t j = 0; j < source_count; j++) {
                if (sources[j] == target ? present : held[j]) {
                    value = plus(value, sources[j] == target ? total : values[j]);
                }
            }
            if (present) {
                total = plus(total, value);
            }
            else {
                total = value;
                present = 1;
                *created += 1;
            }
        }
        if (put(target, index, PyFloat_FromDouble(total)) < 0) {
            return -1;
        }
    }
    return 0;
}

/* PythonKernelBackend.fold_vector_run into ``target``, window by window:
 * the total's count and measures (``running``: count, then measures) and
 * the other found entries' (``found``, after it, the same shape per entry)
 * are read once, the rows fold in doubles, the total is stored once.  A found entry
 * that is the total (the self-loop) reads the running values. */
static int
fold_vector(PyObject *target, PyObject **sources, Py_ssize_t source_count, PyObject **keys,
            Py_ssize_t windows, double base, const double *contributions, Py_ssize_t rows,
            Py_ssize_t dimension, double *running, long long *created)
{
    Py_ssize_t stride = dimension + 1;
    double *found = running + stride;
    for (Py_ssize_t window = 0; window < windows && rows > 0; window++) {
        PyObject *index = keys[window], *total = PyDict_GetItemWithError(target, index);
        if (total == NULL) {
            /* Created before the sources are read: a self-loop finds it. */
            if (PyErr_Occurred() || (total = aggregate_new(dimension)) == NULL
                || put(target, index, Py_NewRef(total)) < 0) {
                Py_XDECREF(total);
                return -1;
            }
            Py_DECREF(total); /* the dict holds it */
            *created += 1;
        }
        if (aggregate_read(total, &running[0], &running[1], dimension) < 0) {
            return -1;
        }
        /* The entries the sources hold here, in source order: ``self[f]``
         * where the f-th is the total, else its values at ``found[f *
         * stride]`` (count, then measures). */
        Py_ssize_t entries = 0;
        char self[MAX_SOURCES];
        for (Py_ssize_t j = 0; j < source_count; j++) {
            PyObject *previous = PyDict_GetItemWithError(sources[j], index);
            if (previous == NULL) {
                if (PyErr_Occurred()) {
                    return -1;
                }
                continue;
            }
            self[entries] = previous == total;
            if (!self[entries]
                && aggregate_read(previous, &found[entries * stride],
                                  &found[entries * stride + 1], dimension) < 0) {
                return -1;
            }
            entries++;
        }
        double *measures = &running[1];
        for (Py_ssize_t row = 0; row < rows; row++) {
            const double *contribution = &contributions[row * dimension];
            double count = base;
            for (Py_ssize_t f = 0; f < entries; f++) {
                count = plus(count, self[f] ? running[0] : found[f * stride]);
            }
            for (Py_ssize_t position = 0; position < dimension; position++) {
                double value = 0.0;
                for (Py_ssize_t f = 0; f < entries; f++) {
                    value = plus(value, self[f] ? measures[position]
                                                : found[f * stride + 1 + position]);
                }
                if (contribution[position] != 0.0) {
                    value = plus(value, times(contribution[position], count));
                }
                measures[position] = plus(measures[position], value);
            }
            running[0] = plus(running[0], count);
        }
        if (aggregate_write(total, running[0], measures, dimension) < 0) {
            return -1;
        }
    }
    return 0;
}

/* MultiWindowLinearEngine._fold_run: every column of ``targets`` folds
 * the run over the windows of ``indices``, reading ``pred_maps`` with
 * ``canonical`` (the plan's own map) replaced by the column, as
 * _TypePlan.fold_sources does.  ``rows`` is None for a scalar unit (then
 * ``count`` rows fold), else the run's contribution tuples. */
static PyObject *
fold_run(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *targets, *canonical, *pred_maps, *indices, *rows, *aggregate, *result = NULL;
    PyObject *keys = NULL, *table = NULL, *sources[MAX_SOURCES];
    double base, *scratch = NULL;
    Py_ssize_t count, dimension;
    if (!PyArg_ParseTuple(args, "O!OO!OdnOnO!:fold_run", &PyTuple_Type, &targets, &canonical,
                          &PyTuple_Type, &pred_maps, &indices, &base, &count, &rows, &dimension,
                          &PyType_Type, &aggregate)) {
        return NULL;
    }
    Py_ssize_t source_count = PyTuple_GET_SIZE(pred_maps), row_count = count < 0 ? 0 : count;
    if (source_count > MAX_SOURCES || dimension < 0) {
        PyErr_SetString(PyExc_ValueError, "fold_run: at most 64 sources, a dimension >= 0");
        return NULL;
    }
    if (rows != Py_None) {
        if (aggregates.type != (PyTypeObject *)aggregate
            && bind(&aggregates, (PyTypeObject *)aggregate) < 0) {
            return NULL;
        }
        if ((table = PySequence_Fast(rows, "fold_run: rows must be a sequence")) == NULL) {
            return NULL;
        }
        row_count = PySequence_Fast_GET_SIZE(table);
        /* The contribution rows, then the running total and a (count,
         * measures) block per source. */
        Py_ssize_t need = row_count * dimension + (dimension + 1) * (source_count + 1);
        if ((scratch = PyMem_Malloc(need * sizeof(double))) == NULL) {
            PyErr_NoMemory();
            goto done;
        }
    }
    for (Py_ssize_t row = 0; table != NULL && row < row_count; row++) {
        PyObject *line = PySequence_Fast_GET_ITEM(table, row);
        if (!(PyTuple_Check(line) || PyList_Check(line))
            || PySequence_Fast_GET_SIZE(line) < dimension) {
            PyErr_SetString(PyExc_ValueError, "fold_run: a contribution per measure and row");
            goto done;
        }
        for (Py_ssize_t position = 0; position < dimension; position++) {
            if (as_double(PySequence_Fast_GET_ITEM(line, position),
                          &scratch[row * dimension + position]) < 0) {
                goto done;
            }
        }
    }
    keys = PyDict_Check(indices) ? PyDict_Keys(indices)
                                 : PySequence_Fast(indices, "fold_run: indices must iterate");
    if (keys == NULL) {
        goto done;
    }
    long long created[2] = {0, 0}; /* canonical, replica entries */
    for (Py_ssize_t t = 0; t < PyTuple_GET_SIZE(targets); t++) {
        PyObject *target = PyTuple_GET_ITEM(targets, t);
        int maps = PyDict_Check(target);
        for (Py_ssize_t j = 0; j < source_count; j++) {
            PyObject *source = PyTuple_GET_ITEM(pred_maps, j);
            sources[j] = source == canonical ? target : source;
            maps &= PyDict_Check(sources[j]);
        }
        if (!maps) {
            PyErr_SetString(PyExc_TypeError, "fold_run: coefficient maps must be dicts");
            goto done;
        }
        long long *made = &created[target != canonical];
        PyObject **window_keys = PySequence_Fast_ITEMS(keys);
        Py_ssize_t windows = PySequence_Fast_GET_SIZE(keys);
        if (table == NULL ? fold_scalar(target, sources, source_count, window_keys, windows,
                                        base, row_count, made)
                          : fold_vector(target, sources, source_count, window_keys, windows,
                                        base, scratch, row_count, dimension,
                                        scratch + row_count * dimension, made)) {
            goto done;
        }
    }
    folded_runs += 1;
    folded_rows += (unsigned long long)row_count;
    result = Py_BuildValue("LL", created[0], created[1]);
done:
    PyMem_Free(scratch);
    Py_XDECREF(keys);
    Py_XDECREF(table);
    return result;
}

static PyObject *
run_counts(PyObject *Py_UNUSED(module), PyObject *Py_UNUSED(args))
{
    return Py_BuildValue("KK", folded_runs, folded_rows);
}

static PyMethodDef methods[] = {
    {"fold_deferred", fold_deferred, METH_VARARGS,
     "fold_deferred(feeds, types, lows, highs) -> (ops, created, armings, rows folded)"},
    {"fold_run", fold_run, METH_VARARGS,
     "fold_run(targets, canonical, pred_maps, indices, base, count, rows, dimension, aggregate)"
     " -> (canonical entries created, replica entries created)"},
    {"close_scalar", close_scalar, METH_VARARGS,
     "close_scalar(index, armed, deferred, end_maps, evict_maps)"
     " -> (array('d') readout, cells disarmed, coefficients evicted)"},
    {"settle_kleene", settle_kleene, METH_VARARGS,
     "settle_kleene(prefix, total, steps): repro.core.kernels.settle_kleene"},
    {"sweep_unit", sweep_unit, METH_VARARGS,
     "sweep_unit(groups, now, slide, stage, metrics, totals, rows, recombine, emit, clock,"
     " types, retire) -> the unit's next close (see runtime/close.py)"},
    {"assemble_events", assemble_events, METH_VARARGS,
     "assemble_events(Event, count, times, sequences, type_table, type_codes, key_table,"
     " key_codes, shape_columns) -> the frame's events (see events/columnar.py)"},
    {"group_codes", group_codes, METH_O,
     "group_codes(column) -> (table, codes) of one array('q') key column"
     " (see events/block.py)"},
    {"time_scan", time_scan, METH_VARARGS,
     "time_scan(times, start, stop) -> (row of the least, of the first non-finite, of the first"
     " descent; -1: none) of a typed time column, or None (see runtime/reorder.py)"},
    {"code_scan", code_scan, METH_VARARGS,
     "code_scan(codes, table, slots) -> (highest code, rows per code, row slots)"
     " (see events/columnar.py)"},
    {"gather", gather, METH_VARARGS,
     "gather(indices, base, length, columns) -> the typed columns gathered, or the position of"
     " the first index out of range, or None (see events/block.py)"},
    {"late_scan", late_scan, METH_VARARGS,
     "late_scan(times, start, stop, newest, lateness) -> (first non-finite row, late rows,"
     " newest rows), or None (see runtime/reorder.py)"},
    {"memory_units", memory_units, METH_VARARGS,
     "memory_units(units, linear engine type) -> CloseStage.open_memory_units"},
    {"cover_counts", cover_counts, METH_NOARGS,
     "cover_counts() -> (rows walked, rows handed back to open a group)"},
    {"run_counts", run_counts, METH_NOARGS, "run_counts() -> (runs, rows) fold_run folded so far"},
    {"segment_counts", segment_counts, METH_NOARGS,
     "segment_counts() -> (segments the walk folded in place, handed to process_block_run)"},
    {"settle_counts", settle_counts, METH_NOARGS,
     "settle_counts() -> (settles, steps) the fold and the readout paid so far"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_foldcore",
    .m_doc = "Compiled fold core of the shared engine (see foldcore.py).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__foldcore(void)
{
    for (int steps = 0; steps < 54; steps++) {
        powers[steps] = ldexp(1.0, steps);
    }
    PyObject *array_module = PyImport_ImportModule("array");
    if (array_module == NULL) {
        return NULL;
    }
    array_type = PyObject_GetAttrString(array_module, "array");
    Py_DECREF(array_module);
    typecode = PyUnicode_FromString("d");
    zero = PyFloat_FromDouble(0.0);
    if (array_type == NULL || typecode == NULL || zero == NULL) {
        return NULL;
    }
    for (int which = 0; which < 3; which++) {
        templates[which] = PyObject_CallFunction(array_type, "s(i)", (char[]){"dqI"[which], 0}, 0);
        if (templates[which] == NULL) {
            return NULL;
        }
    }
    struct { PyObject **name; const char *text; } names[] = {
        {&s_process_block_run, "process_block_run"}, {&s_frombytes, "frombytes"},
        {&s_segment_feeds, "_segment_feeds"}, {&s_eager, "_eager"}, {&s_columns, "_columns"},
        {&s_latest_event, "_latest_event"},
        {&s_unit, "unit"}, {&s_layout, "layout"}, {&s_armed, "_armed"},
        {&s_deferred, "_deferred"}, {&s_unsettled, "_unsettled"}, {&s_end_maps, "_end_maps"},
        {&s_evict_maps, "_evict_maps"}, {&s_ops, "_ops"}, {&s_coeff_entries, "_coeff_entries"},
        {&s_replica_entries, "_replica_entries"}, {&s_armed_entries, "_armed_entries"},
        {&s_by_layout, "_by_layout"}, {&s_sums_of, "sums_of"}, {&s_copy, "__copy__"},
        {&s_next_close, "next_close"}, {&s_peak_active, "peak_active_windows"},
        {&s_groups, "groups"}, {&s_store, "_store"}, {&s_scalar, "scalar"},
        {&s_dimension, "dimension"}, {&s_memory_units, "memory_units"}, {&s_start, "start"},
        {&s_step, "step"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        if ((*names[i].name = PyUnicode_InternFromString(names[i].text)) == NULL) {
            return NULL;
        }
    }
    if (PyType_Ready(&walk_type) < 0) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&module_def);
    if (module != NULL && PyModule_AddObjectRef(module, "Walk", (PyObject *)&walk_type) < 0) {
        Py_CLEAR(module);
    }
    return module;
}
