"""Build script. The compiled kernel extension is optional: it is built from
``_speedups.pyx`` with Cython, or from the tracked ``_speedups.c`` when
Cython is missing; without a C compiler the package installs anyway and
falls back to the pure-Python kernels at import time."""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing entirely
            print(f"warning: skipping compiled kernels ({exc})")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: could not build {ext.name} ({exc}); "
                  "the pure-Python kernels will be used")


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        # the generated C file is tracked, so a C compiler is enough
        print("note: Cython not installed; building the tracked _speedups.c")
        return [Extension("hklattice._speedups", ["src/hklattice/_speedups.c"])]
    return cythonize(
        [Extension("hklattice._speedups", ["src/hklattice/_speedups.pyx"])],
        language_level=3,
    )


setup(ext_modules=extensions(), cmdclass={"build_ext": OptionalBuildExt})
