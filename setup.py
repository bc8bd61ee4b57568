from setuptools import Extension, setup

# The committed C is generated from _kernels.pyx by Cython 3.2.8 (see the
# README); building it needs only a C compiler.
setup(ext_modules=[Extension("normortho._kernels", ["src/normortho/_kernels.c"])])
