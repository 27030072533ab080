/* The compiled fold core of the shared engine (built by foldcore.py).
 *
 * Two loops of runtime/shared_windows.py, run on the engine's own state:
 *
 *   fold_deferred  the per-row loop of MultiWindowLinearEngine._fold_segment
 *                  where every class of the unit folds deferred (scalar
 *                  SEQ(P, K+));
 *   close_scalar   the readout of MultiWindowLinearEngine.close_window for a
 *                  scalar unit with no split column and no event store;
 *
 * and their one helper, settle_kleene (repro.core.kernels).  Each dict is
 * read and written in the order the Python reference does it, so insertion
 * order -- and the snapshot bytes -- match; each float operation is the
 * reference's, in its association, and -ffp-contract=off keeps the compiler
 * from fusing a multiply into an add (one rounding where Python has two).
 *
 * The _DeferredKleene counters (rows, cells, entries) are object __slots__:
 * the core takes their offsets from the class once and reads and writes
 * them in place, without the attribute protocol.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <math.h>

#define EXACT_LIMIT 9007199254740992.0 /* 2**53, kernels._EXACT_LIMIT */

static double powers[54];
static PyTypeObject *counter_type = NULL;
static Py_ssize_t offsets[3];
enum { ROWS, CELLS, ENTRIES };
static unsigned long long settles = 0, settled_steps = 0;
static PyObject *zero = NULL, *array_type = NULL, *typecode = NULL;

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
/* The deferred counters' slots                                        */
/* ------------------------------------------------------------------ */

static int
bind(PyTypeObject *type)
{
    static const char *names[3] = {"rows", "cells", "entries"};
    Py_ssize_t found[3];
    for (int which = ROWS; which <= ENTRIES; which++) {
        PyObject *member = PyObject_GetAttrString((PyObject *)type, names[which]);
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
                         type->tp_name, names[which]);
            return -1;
        }
    }
    Py_INCREF(type);
    Py_XSETREF(counter_type, type);
    memcpy(offsets, found, sizeof(found));
    return 0;
}

/* The int in ``counter``'s slot ``which`` (borrowed), or NULL. */
static PyObject **
slot(PyObject *counter, int which)
{
    if (Py_TYPE(counter) != counter_type && bind(Py_TYPE(counter)) < 0) {
        return NULL;
    }
    PyObject **at = (PyObject **)((char *)counter + offsets[which]);
    if (*at == NULL || !PyLong_CheckExact(*at)) {
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

static int
add(PyObject *counter, int which, long long delta)
{
    if (delta == 0) {
        return 0;
    }
    PyObject **at = slot(counter, which);
    if (at == NULL) {
        return -1;
    }
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
fold_row(PyObject *feed, PyObject *low, PyObject *high, long long *ops, long long *created,
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
    if (PyTuple_GET_SIZE(prefixed) == 0) {
        return 0;
    }
    long long lo = PyLong_AsLongLong(low), hi = PyLong_AsLongLong(high);
    if ((lo == -1 || hi == -1) && PyErr_Occurred()) {
        return -1;
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
        if (fold_row(feed, PySequence_Fast_GET_ITEM(lows, row),
                     PySequence_Fast_GET_ITEM(highs, row), &ops, &created, &armings) < 0) {
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

static PyObject *
close_scalar(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *index, *armed, *deferred, *end_maps, *evict_maps;
    if (!PyArg_ParseTuple(args, "O!O!OO!O!:close_scalar", &PyLong_Type, &index, &PyList_Type,
                          &armed, &deferred, &PyList_Type, &end_maps, &PyTuple_Type,
                          &evict_maps)) {
        return NULL;
    }
    Py_ssize_t classes = PyList_GET_SIZE(armed);
    if (PyList_GET_SIZE(end_maps) != classes || (deferred != Py_None && !PyDict_Check(deferred))) {
        PyErr_SetString(PyExc_TypeError, "close_scalar: malformed engine state");
        return NULL;
    }
    PyObject *bytes = PyBytes_FromStringAndSize(NULL, classes * (Py_ssize_t)sizeof(double));
    if (bytes == NULL) {
        return NULL;
    }
    double *values = (double *)PyBytes_AS_STRING(bytes);
    long long disarmed = 0, evicted = 0;
    PyObject *result = NULL;
    for (Py_ssize_t spec = 0; spec < classes; spec++) {
        PyObject *cells = PyList_GET_ITEM(armed, spec), *ends = PyList_GET_ITEM(end_maps, spec);
        PyObject *state = NULL;
        if (!PyDict_CheckExact(cells) || !PyTuple_Check(ends)) {
            PyErr_SetString(PyExc_TypeError, "close_scalar: malformed engine state");
            goto done;
        }
        if (deferred != Py_None && PyDict_GET_SIZE(deferred)) {
            PyObject *key = PyLong_FromSsize_t(spec);
            state = key == NULL ? NULL : PyDict_GetItemWithError(deferred, key);
            Py_XDECREF(key);
            if (state == NULL && PyErr_Occurred()) {
                goto done;
            }
        }
        if (disarm(cells, state, index, &disarmed) < 0) {
            goto done;
        }
        /* The readout drains the end-type coefficients it reads. */
        values[spec] = 0.0;
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(ends); i++) {
            if (drain(PyTuple_GET_ITEM(ends, i), index, &values[spec], &evicted) < 0) {
                goto done;
            }
        }
    }
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(evict_maps); i++) {
        if (drain(PyTuple_GET_ITEM(evict_maps, i), index, NULL, &evicted) < 0) {
            goto done;
        }
    }
    PyObject *readout = PyObject_CallFunctionObjArgs(array_type, typecode, bytes, NULL);
    if (readout != NULL) {
        result = Py_BuildValue("NLL", readout, disarmed, evicted);
    }
done:
    Py_DECREF(bytes);
    return result;
}

static PyMethodDef methods[] = {
    {"fold_deferred", fold_deferred, METH_VARARGS,
     "fold_deferred(feeds, types, lows, highs) -> (ops, created, armings, rows folded)"},
    {"close_scalar", close_scalar, METH_VARARGS,
     "close_scalar(index, armed, deferred, end_maps, evict_maps)"
     " -> (array('d') readout, cells disarmed, coefficients evicted)"},
    {"settle_kleene", settle_kleene, METH_VARARGS,
     "settle_kleene(prefix, total, steps): repro.core.kernels.settle_kleene"},
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
    return PyModule_Create(&module_def);
}
