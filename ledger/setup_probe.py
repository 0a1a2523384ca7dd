"""Time one set-up in a fresh interpreter: import ``repro``, build inputs.

Usage (from the repository root)::

    python3 ledger/setup_probe.py <workload> <seed>
    python3 ledger/setup_probe.py reference

``reference`` times the reference set-up instead: importing numpy and a
fixed set of standard-library modules, work of the same kind as the
set-up that no change to the program can move. Prints the elapsed
seconds as its last line.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402

if sys.argv[1] == "reference":
    import argparse  # noqa: E402,F401
    import asyncio  # noqa: E402,F401
    import bz2  # noqa: E402,F401
    import calendar  # noqa: E402,F401
    import concurrent.futures  # noqa: E402,F401
    import configparser  # noqa: E402,F401
    import csv  # noqa: E402,F401
    import dataclasses  # noqa: E402,F401
    import decimal  # noqa: E402,F401
    import difflib  # noqa: E402,F401
    import email.parser  # noqa: E402,F401
    import enum  # noqa: E402,F401
    import fractions  # noqa: E402,F401
    import ftplib  # noqa: E402,F401
    import gettext  # noqa: E402,F401
    import gzip  # noqa: E402,F401
    import http.client  # noqa: E402,F401
    import imaplib  # noqa: E402,F401
    import inspect  # noqa: E402,F401
    import json  # noqa: E402,F401
    import locale  # noqa: E402,F401
    import logging  # noqa: E402,F401
    import lzma  # noqa: E402,F401
    import multiprocessing  # noqa: E402,F401
    import pickle  # noqa: E402,F401
    import pydoc  # noqa: E402,F401
    import shutil  # noqa: E402,F401
    import smtplib  # noqa: E402,F401
    import sqlite3  # noqa: E402,F401
    import ssl  # noqa: E402,F401
    import statistics  # noqa: E402,F401
    import tarfile  # noqa: E402,F401
    import tempfile  # noqa: E402,F401
    import typing  # noqa: E402,F401
    import unittest  # noqa: E402,F401
    import urllib.request  # noqa: E402,F401
    import uuid  # noqa: E402,F401
    import xml.dom.minidom  # noqa: E402,F401
    import xmlrpc.client  # noqa: E402,F401
    import zipfile  # noqa: E402,F401

    import numpy  # noqa: E402,F401
    import numpy.fft  # noqa: E402,F401
    import numpy.linalg  # noqa: E402,F401
    import numpy.random  # noqa: E402,F401
else:
    from pathlib import Path

    HERE = Path(__file__).resolve().parent
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

    import repro  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(perf_counter() - START)
