from setuptools import Extension, setup

# _kernels.c is a hand-written CPython extension; building it needs only a
# C compiler and the Python headers.
setup(ext_modules=[Extension("normortho._kernels", ["src/normortho/_kernels.c"])])
