"""``python -m e2fock``: the ``e2fock`` command."""

from e2fock.cli import entrypoint

if __name__ == "__main__":
    entrypoint()
